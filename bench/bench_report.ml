(* Machine-readable bench report (bench --report FILE.json) and the
   LP_BENCH_CSV files.

   Figures record one point per sweep element: string labels
   identifying the point (workload, system, load, ...) and float
   metrics (p50_us, p99_us, tput_rps, ...).  Points carry only
   simulation-derived numbers, so two reports from the same seed are
   byte-identical under "figures" regardless of --jobs; host-dependent
   facts live under "meta", which CI strips before diffing.  When
   LP_BENCH_CSV names a directory, each figure also lands there as
   <figure>.csv, one row per point.  [point] must be called after the
   sweep, never from inside a pool task. *)

type point = { labels : (string * string) list; metrics : (string * float) list }

type figure = { mutable points : point list; mutable wall_s : float }

let collecting = ref false
let jobs_used = ref 1
let figures : (string, figure) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []
let t_start = ref 0.0

let start ~jobs =
  collecting := true;
  jobs_used := jobs;
  t_start := Unix.gettimeofday ()

let figure name =
  match Hashtbl.find_opt figures name with
  | Some f -> f
  | None ->
    let f = { points = []; wall_s = 0.0 } in
    Hashtbl.add figures name f;
    order := name :: !order;
    f

(* Figures that got points since the last [flush_csv]. *)
let touched : string list ref = ref []

let point ~fig ~labels ~metrics =
  let f = figure fig in
  f.points <- { labels; metrics } :: f.points;
  if not (List.mem fig !touched) then touched := fig :: !touched

let csv ~name ~header ~rows =
  match Exec.Env.getenv_nonempty "LP_BENCH_CSV" with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    List.iter (fun row -> output_string oc (row ^ "\n")) (header :: rows);
    close_out oc;
    Format.printf "(csv: %s/%s.csv)@." dir name

let render v = if Float.is_finite v then String.trim (Obs.Json.to_string (Obs.Json.Num v)) else ""

let cell s =
  if String.exists (fun c -> c = ',' || c = '"') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* The label and the metric columns of a list of (labels, metrics)
   rows, each in first-seen order. *)
let columns rows =
  let union keys =
    List.fold_left (fun acc ks -> acc @ List.filter (fun k -> not (List.mem k acc)) ks) [] keys
  in
  ( union (List.map (fun (l, _) -> List.map fst l) rows),
    union (List.map (fun (_, m) -> List.map fst m) rows) )

(* Write <figure>.csv for every figure touched since the last call;
   a column a point lacks is left empty. *)
let flush_csv () =
  List.iter
    (fun name ->
      let points = List.rev (Hashtbl.find figures name).points in
      let lcols, mcols = columns (List.map (fun p -> (p.labels, p.metrics)) points) in
      let row p =
        List.map (fun k -> Option.value ~default:"" (List.assoc_opt k p.labels)) lcols
        @ List.map (fun k -> Option.fold ~none:"" ~some:render (List.assoc_opt k p.metrics)) mcols
      in
      csv ~name
        ~header:(String.concat "," (List.map cell (lcols @ mcols)))
        ~rows:(List.map (fun p -> String.concat "," (List.map cell (row p))) points))
    (List.rev !touched);
  touched := []

(* Perf-probe metrics (bench --perf).  Host-dependent like wall-clock,
   so they land under "meta" (as meta.perf), never under "figures" —
   except that the minor-word and event-count entries are in fact
   deterministic for a fixed binary, which is what the CI perf gate
   reads. *)
let perf_metrics : (string * float) list ref = ref []

let perf name value =
  if !collecting then perf_metrics := (name, value) :: !perf_metrics

(* Fault-injection resilience ledgers (bench --faults, --overload).
   Simulation-derived and deterministic like figure points, but they
   describe a run's fault bookkeeping rather than a plotted metric, so
   they land under "meta" as meta.resilience; lpbench_check ignores
   them and CI strips meta before diffing. *)
let resilience_entries : (string * Fault.report) list ref = ref []

let resilience ~name (r : Fault.report) =
  if !collecting then resilience_entries := (name, r) :: !resilience_entries

(* Called by main around each element so per-figure wall-clock lands in
   meta even for elements that record no points, and the element's
   figures land in LP_BENCH_CSV. *)
let timed name f =
  (if not !collecting then f ()
   else
     let t0 = Unix.gettimeofday () in
     Fun.protect
       ~finally:(fun () -> (figure name).wall_s <- Unix.gettimeofday () -. t0)
       f);
  flush_csv ()

let num v = Obs.Json.Num v
let count i = num (float_of_int i)
let obj f kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs)

let json_of_ledger (r : Fault.report) =
  Obs.Json.Obj
    [
      ("injected", count r.Fault.injected);
      ("detected", count r.Fault.detected);
      ("recovered", count r.Fault.recovered);
      ("undetected", count r.Fault.undetected);
      ( "points",
        obj
          (fun (p : Fault.point_report) ->
            obj count
              [
                ("evals", p.Fault.pevals);
                ("injected", p.Fault.pinjected);
                ("detected", p.Fault.pdetected);
                ("recovered", p.Fault.precovered);
              ])
          (List.map (fun (p : Fault.point_report) -> (p.Fault.pname, p)) r.Fault.points) );
    ]

let write ~path =
  let names = List.rev !order in
  let fig_members =
    List.filter_map
      (fun name ->
        match (Hashtbl.find figures name).points with
        | [] -> None
        | ps ->
          let json p =
            Obs.Json.Obj
              [ ("labels", obj (fun v -> Obs.Json.Str v) p.labels); ("metrics", obj num p.metrics) ]
          in
          Some (name, Obs.Json.List (List.rev_map json ps)))
      names
  in
  let optional name f = function [] -> [] | l -> [ (name, obj f (List.rev l)) ] in
  let meta =
    [
      ("jobs", count !jobs_used);
      ("total_wall_s", num (Unix.gettimeofday () -. !t_start));
      ("wall_s", obj num (List.map (fun n -> (n, (Hashtbl.find figures n).wall_s)) names));
    ]
    @ optional "perf" num !perf_metrics
    @ optional "resilience" json_of_ledger !resilience_entries
  in
  Obs.Json.to_file ~path
    (Obs.Json.Obj
       [ ("schema", num 1.0); ("meta", Obs.Json.Obj meta); ("figures", Obs.Json.Obj fig_members) ]);
  Format.printf "@.(report: %s — %d figures, jobs=%d)@." path (List.length fig_members)
    !jobs_used
