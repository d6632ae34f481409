(* Shared helpers for the reproduction harness, and the driver that
   runs every figure: a labelled point list goes through [sweep], comes
   out as one table, and lands in the report (and, through it, in the
   LP_BENCH_CSV files) row by row. *)

let spec_of_string text =
  match Scenario.of_string text with
  | Ok s -> s
  | Error e -> invalid_arg ("bench: bad scenario: " ^ Scenario.error_to_string e)

(* Run a single-server spec after record-updating its lowered config,
   for the knobs the scenario language has no field for (a custom
   policy, a timer-core poll interval, telemetry). *)
let run_with spec tweak =
  Preemptible.Server.run ~warmup_ns:spec.Scenario.warmup_ns
    (tweak (Scenario.server_config spec))
    ~arrival:(Scenario.arrival_process spec) ~source:(Scenario.source_sampler spec)
    ~duration_ns:spec.Scenario.duration_ns

(* Parallel sweep for figure benches.  Tasks must be pure simulations
   (own Sim/Rng, no printing), so results come back in submission order
   at any job count.  When LP_POOL_TRACE names a file, every pool in the
   run shares one wall-clock trace ring (category "exec"), exported as
   Perfetto JSON at exit. *)
let pool_trace =
  lazy
    (match Exec.Env.getenv_nonempty "LP_POOL_TRACE" with
    | None -> None
    | Some path ->
      let t0 = Unix.gettimeofday () in
      let trace =
        Obs.Trace.create
          ~config:{ Obs.Trace.capacity = 1 lsl 16; categories = [ Obs.Trace.Exec ] }
          ~clock:(fun () -> int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
          ()
      in
      at_exit (fun () ->
          Obs.Export.perfetto_to_file trace ~path;
          Format.printf "(pool trace: %s)@." path);
      Some trace)

let sweep ?label ~jobs f xs =
  Exec.Sweep.run ?trace:(Lazy.force pool_trace) ?label ~jobs f xs

let header title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

(* The figure driver. *)

let label key (labels : Figure.labels) = List.assoc key labels

(* The result at the point whose labels agree with [labels] on [keys]
   and carry [key = value]. *)
let find results labels ~keys (key, value) =
  snd
    (List.find
       (fun (l, _) ->
         label key l = value && List.for_all (fun k -> label k l = label k labels) keys)
       results)

(* Sweep labelled points; results keep their labels, in point order. *)
let run ~jobs ~label f points =
  List.combine (List.map fst points) (sweep ~label ~jobs (fun (l, x) -> f l x) points)

let num v = Printf.sprintf (if Float.abs v >= 1e4 then "%.0f" else "%.4g") v

(* One table layout for every figure: label columns, then metric
   columns, one line per point.  Each row is also a report point, and
   so a CSV row. *)
let emit name rows =
  let lcols, mcols = Bench_report.columns rows in
  let cells (labels, metrics) =
    List.map (fun k -> Option.value ~default:"-" (List.assoc_opt k labels)) lcols
    @ List.map (fun k -> Option.fold ~none:"-" ~some:num (List.assoc_opt k metrics)) mcols
  in
  let body = List.map cells rows in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map String.length (lcols @ mcols))
      body
  in
  let line cs =
    List.iteri
      (fun i (w, c) ->
        if i < List.length lcols then Format.printf "  %-*s" w c else Format.printf "  %*s" w c)
      (List.combine widths cs);
    Format.printf "@."
  in
  line (lcols @ mcols);
  List.iter line body;
  List.iter (fun (labels, metrics) -> Bench_report.point ~fig:name ~labels ~metrics) rows

(* Server metrics of a result that carries a server run. *)
let server_metrics proj names =
  List.map (fun m -> (m, fun x -> snd (Figure.server_metric m) (proj x))) names

let rows metrics results =
  List.map (fun (l, r) -> (l, List.map (fun (k, f) -> (k, f r)) metrics)) results

(* A figure from its own labelled points (not specs): sweep, emit. *)
let points ~jobs ~name ~metrics f points =
  let results = run ~jobs ~label:name f points in
  emit name (rows metrics results);
  results

(* A figure value: its points, its table, then [hook] (a summary a
   figure adds over its rows), then its expected shape. *)
let figure ~jobs ?(hook = ignore) (fig : _ Figure.t) =
  hook (points ~jobs ~name:fig.name ~metrics:fig.metrics fig.run (Figure.points fig));
  if fig.expected <> "" then Format.printf "@.%s@." fig.expected
