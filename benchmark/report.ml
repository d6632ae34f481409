(* Printing results, the JSON report, and [compare]. *)

open Obs.Json

let unit_of name = match Schema.find name with Some d -> d.Schema.unit_ | None -> ""

let result_json (o : Workloads.outcome) =
  Obj
    [
      ("correct", Bool (o.failed = 0));
      ("attempted", Num (float_of_int o.attempted));
      ("failed", Num (float_of_int o.failed));
      ( "metrics",
        Obj
          (List.map
             (fun (k, v) -> (k, Obj [ ("value", Num v); ("unit", Str (unit_of k)) ]))
             o.metrics) );
    ]

(* The result on one line, the form the last line of a run takes. *)
let one_line j =
  String.trim (String.map (function '\n' -> ' ' | c -> c) (to_string ~indent:0 j))

let print_outcome ~workload ?(sources = []) (o : Workloads.outcome) =
  List.iter (fun c -> Printf.printf "# %s: %s\n" workload c) o.checks;
  List.iter
    (fun (k, v) ->
      let src = match List.assoc_opt k sources with Some s -> "  [" ^ s ^ "]" | None -> "" in
      Printf.printf "%s %s %.6g %s%s\n" workload k v (unit_of k) src)
    o.metrics;
  List.iter (fun (k, v, u) -> Printf.printf "%s %s %.6g %s\n" workload k v u) o.info;
  Printf.printf "%s failed_frac %.6g ratio\n" workload
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))

(* A report: the run's settings and one result per workload. *)
let report ~seed ~seconds ~traced results =
  Obj
    [
      ("seed", Num (float_of_int seed));
      ("seconds", Num seconds);
      ("trace", Num (if traced then 1.0 else 0.0));
      ("workloads", Obj results);
    ]

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match of_file path with Ok j -> j | Error m -> failwith m

(* [(workload, metric) -> value] for every metric of a report. *)
let report_values path =
  let j = read_json path in
  match Option.bind (member "workloads" j) to_obj with
  | None -> failwith (path ^ ": not a benchmark report (no \"workloads\")")
  | Some ws ->
    List.concat_map
      (fun (w, r) ->
        Option.value ~default:[] (Option.bind (member "metrics" r) to_obj)
        |> List.filter_map (fun (m, v) ->
               Option.map (fun x -> ((w, m), x)) (Option.bind (member "value" v) to_num)))
      ws

(* The bounds of BENCHMARK.json's end-to-end metrics, by name. *)
let bounds ~root =
  let j = read_json (Filename.concat root "BENCHMARK.json") in
  Option.value ~default:[] (Option.bind (member "end_to_end" j) to_list)
  |> List.filter_map (fun m ->
         let field k conv = Option.bind (member k m) conv in
         match (field "name" to_str, field "bound" to_num) with
         | Some name, Some bound -> Some (name, bound)
         | _ -> None)

(* Every metric found on both sides, per workload: medians, quartiles,
   the change of the median and, for a metric with a bound, the
   verdict.  Returns the verdicts. *)
let compare ~root before after =
  let bs = bounds ~root in
  let vals files = List.concat_map report_values files in
  let va = vals before and vb = vals after in
  let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) (va @ vb)) in
  let pick vs key =
    Array.of_list (List.filter_map (fun (k, v) -> if k = key then Some v else None) vs)
  in
  let side xs =
    let q1, med, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g %.4g] n=%d" med q1 q3 (Array.length xs)
  in
  let row = Printf.printf "%-16s %-36s %-32s %-32s %8s %6s  %s\n" in
  row "workload" "metric" "before: median [q1 q3]" "after: median [q1 q3]" "change" "bound"
    "verdict";
  let verdicts =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (d : Schema.def) ->
            let a = pick va (w, d.name) and b = pick vb (w, d.name) in
            if Array.length a = 0 || Array.length b = 0 then None
            else begin
              let ma = Stats.median a in
              let change = if ma = 0.0 then 0.0 else (Stats.median b -. ma) /. Float.abs ma in
              let bound, v =
                match List.assoc_opt d.name bs with
                | Some bound ->
                  let v = Stats.verdict ~better:d.better ~bound ~before:a ~after:b in
                  (Printf.sprintf "%5.0f%%" (100.0 *. bound), Some v)
                | None -> ("-", None)
              in
              row w d.name (side a) (side b)
                (Printf.sprintf "%+.1f%%" (100.0 *. change))
                bound
                (match v with Some v -> Stats.verdict_name v | None -> "-");
              v
            end)
          (Schema.end_to_end @ Schema.per_layer))
      workloads
  in
  if verdicts = [] then failwith "compare: no end-to-end metric appears on both sides";
  verdicts
