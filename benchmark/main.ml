(* The repository benchmark.  See benchmark/README.md.

     main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--trace-dir DIR] [--out FILE]
     main.exe compare BEFORE.json... -- AFTER.json...

   With --workload, runs that workload in this process and prints its
   metrics, then the result as one JSON line.  Without it, runs every
   workload, each in its own child process, and prints all metrics. *)

open Harness

let usage =
  "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] \
   [--out FILE]\n\
  \       main.exe compare BEFORE.json... -- AFTER.json..."

exception Usage of string

type opts = {
  workload : Workloads.workload option;
  seed : int;
  seconds : int;
  trace : bool;
  trace_dir : string option;
  out : string option;
}

let names () = String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let parse_opts args =
  let bad fmt = Printf.ksprintf (fun m -> raise (Usage m)) fmt in
  let nat flag v ~min =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | _ -> bad "bad %s %S (expected a whole number >= %d)" flag v min
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> (
      match Workloads.find v with
      | Some w -> go { o with workload = Some w } rest
      | None -> bad "unknown workload %S (one of: %s)" v (names ()))
    | "--seed" :: v :: rest -> go { o with seed = nat "--seed" v ~min:0 } rest
    | "--seconds" :: v :: rest -> go { o with seconds = nat "--seconds" v ~min:1 } rest
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { o with trace = false } rest
      | "1" -> go { o with trace = true } rest
      | _ -> bad "bad --trace %S (expected 0 or 1)" v)
    | "--trace-dir" :: v :: rest -> go { o with trace_dir = Some v } rest
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--trace-dir" | "--out") as f ] ->
      bad "%s needs a value" f
    | x :: _ -> bad "unknown argument %S" x
  in
  go
    {
      workload = None;
      seed = Workloads.default_seed;
      seconds = 20;
      trace = false;
      trace_dir = None;
      out = None;
    }
    args

(* The repository root: the nearest directory, from here up, that holds
   BENCHMARK.json. *)
let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "BENCHMARK.json") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then
        failwith "BENCHMARK.json not found here or in any parent; run from the repository"
      else up parent
  in
  up (Sys.getcwd ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* DIR/layers.json holds one entry per traced workload: the self time
   of each span name and the per-layer metrics with their source. *)
let write_layers ~dir ~workload spans (o : Workloads.outcome) sources =
  let open Obs.Json in
  let path = Filename.concat dir "layers.json" in
  let others =
    match of_file path with Ok (Obj l) -> List.remove_assoc workload l | _ | (exception _) -> []
  in
  let self =
    List.map
      (fun (name, s) ->
        ( name,
          Obj
            [
              ("count", Num (float_of_int s.Spans.count));
              ("total_ms", Num s.total_ms);
              ("self_ms", Num s.self_ms);
            ] ))
      (Spans.self_times spans)
  in
  let metrics =
    List.map
      (fun (k, v) ->
        ( k,
          Obj
            [
              ("value", Num v);
              ("unit", Str (Report.unit_of k));
              ("source", Str (List.assoc k sources));
            ] ))
      o.metrics
  in
  let entry = Obj [ ("self", Obj self); ("metrics", Obj metrics) ] in
  to_file (Obj (others @ [ (workload, entry) ])) ~path

let run_one opts ~root (w : Workloads.workload) =
  let spans = if opts.trace then Some (Spans.create ~capacity:(1 lsl 20)) else None in
  let ctx =
    { Workloads.seed = opts.seed; seconds = float_of_int opts.seconds; root; trace = spans }
  in
  let o, sources =
    match spans with
    | None -> (Workloads.run_untraced w ctx, [])
    | Some s ->
      let o, sources = Workloads.complete_traced ~seed:opts.seed s (w.run ctx) in
      let dir = Option.value opts.trace_dir ~default:(Filename.concat root "benchmark-trace") in
      mkdir_p dir;
      Spans.export_perfetto s ~path:(Filename.concat dir (w.name ^ ".perfetto.json"));
      write_layers ~dir ~workload:w.name s o sources;
      Printf.printf "# %s: trace written to %s\n" w.name dir;
      (o, sources)
  in
  Report.print_outcome ~workload:w.name ~sources o;
  let result = Report.result_json o in
  Option.iter
    (fun path ->
      Obs.Json.to_file
        (Report.report ~seed:opts.seed ~seconds:(float_of_int opts.seconds) ~traced:opts.trace
           [ (w.name, result) ])
        ~path)
    opts.out;
  print_endline (Report.one_line result)

(* Run every workload in a child process of its own, so peak RSS and
   GC state are per workload.  Exit 1 if any workload failed. *)
let run_all opts =
  let ok = ref true in
  let results =
    List.filter_map
      (fun (w : Workloads.workload) ->
        let args =
          [
            Sys.executable_name;
            "--workload";
            w.name;
            "--seed";
            string_of_int opts.seed;
            "--seconds";
            string_of_int opts.seconds;
            "--trace";
            (if opts.trace then "1" else "0");
          ]
          @ match opts.trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let rec lines last =
          match input_line ic with
          | line ->
            Option.iter print_endline last;
            lines (Some line)
          | exception End_of_file -> last
        in
        let last = lines None in
        let status = Unix.close_process_in ic in
        match (status, Option.map Obs.Json.parse last) with
        | Unix.WEXITED 2, _ ->
          (* A usage or input error, already reported on one line. *)
          exit 2
        | Unix.WEXITED 0, Some (Ok j) ->
          if Obs.Json.member "correct" j <> Some (Obs.Json.Bool true) then ok := false;
          Some (w.name, j)
        | _ ->
          Printf.printf "# %s: FAILED to produce a result\n" w.name;
          ok := false;
          None)
      Workloads.all
  in
  Option.iter
    (fun path ->
      Obs.Json.to_file
        (Report.report ~seed:opts.seed ~seconds:(float_of_int opts.seconds) ~traced:opts.trace
           results)
        ~path)
    opts.out;
  if not !ok then exit 1

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | ("-h" | "--help") :: _ -> print_endline usage
  | "compare" :: rest ->
    let rec split acc = function
      | "--" :: after -> (List.rev acc, after)
      | x :: xs -> split (x :: acc) xs
      | [] -> raise (Usage "compare needs BEFORE.json... -- AFTER.json...")
    in
    let before, after = split [] rest in
    if before = [] || after = [] then raise (Usage "compare needs reports on both sides of --");
    let verdicts = Report.compare ~root:(find_root ()) before after in
    if List.mem Stats.Worse verdicts then exit 1
  | args -> (
    let opts = parse_opts args in
    let root = find_root () in
    match opts.workload with Some w -> run_one opts ~root w | None -> run_all opts)

let () =
  match main () with
  | () -> ()
  | exception Usage m ->
    prerr_endline ("benchmark: " ^ m);
    exit 2
  | exception e ->
    let m =
      match e with
      | Failure m | Invalid_argument m | Sys_error m -> m
      | e -> Printexc.to_string e
    in
    prerr_endline ("benchmark: " ^ m);
    exit 2
