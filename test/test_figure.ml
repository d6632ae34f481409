(* Tests of lib/figure that run no simulation: Fig 8's definition
   against the committed baseline, and the grid's lowering. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The copy dune places next to the build for [dune runtest]; a run of
   the test binary from the repository root reads the source file. *)
let baseline =
  let built =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "BENCH_BASELINE.json" ]
  in
  if Sys.file_exists built then built else "BENCH_BASELINE.json"

let get what = function Some v -> v | None -> Alcotest.fail ("baseline: no " ^ what)
let sorted labels = List.sort compare labels

let baseline_fig8_labels () =
  let json =
    match Obs.Json.of_file baseline with Ok j -> j | Error e -> Alcotest.fail e
  in
  Obs.Json.member "figures" json
  |> Fun.flip Option.bind (Obs.Json.member "fig8")
  |> Fun.flip Option.bind Obs.Json.to_list
  |> get "figures.fig8"
  |> List.map (fun p ->
         Obs.Json.member "labels" p |> Fun.flip Option.bind Obs.Json.to_obj |> get "labels"
         |> List.map (fun (k, v) -> (k, get k (Obs.Json.to_str v)))
         |> sorted)

let labels fig = List.map (fun (l, _) -> sorted l) (Figure.points fig)

let test_fig8_matches_baseline () =
  let expected = baseline_fig8_labels () in
  check_int "baseline points" 128 (List.length expected);
  Alcotest.(check (list (list (pair string string))))
    "label sets in report order" expected (labels Figure.fig8)

let test_fig8_slo_references () =
  let pair l = (List.assoc "workload" l, List.assoc "system" l) in
  let refs = labels Figure.fig8_slo in
  check_int "16 reference runs" 16 (List.length refs);
  check_bool "all at 0.1x" true (List.for_all (fun l -> List.assoc "load" l = "0.1") refs);
  (* one per (workload, system) of the grid, in the grid's order *)
  let grid = List.sort_uniq compare (List.map pair (labels Figure.fig8)) in
  Alcotest.(check (list (pair string string)))
    "every workload x system" grid
    (List.sort compare (List.map pair refs))

(* Every system of the figure is offered the same absolute rate: the
   load times the capacity of 4 workers, bit for bit. *)
let test_fig8_rates () =
  List.iter
    (fun (l, (spec : Scenario.t)) ->
      let rate =
        match spec.Scenario.arrival with
        | Scenario.Poisson r -> Scenario.rate_rps spec r
        | _ -> Alcotest.fail "fig8: arrival is not poisson"
      in
      let cap =
        Scenario.capacity_rps
          {
            Scenario.default with
            src = spec.Scenario.src;
            workers = 4;
            duration_ns = spec.duration_ns;
          }
      in
      check_bool
        (String.concat "," (List.map snd l))
        true
        (Int64.bits_of_float rate
        = Int64.bits_of_float (float_of_string (List.assoc "load" l) *. cap)))
    (Figure.points Figure.fig8 @ Figure.points Figure.fig8_slo)

let suites =
  [
    ( "figure",
      [
        Alcotest.test_case "fig8 grid = baseline labels" `Quick test_fig8_matches_baseline;
        Alcotest.test_case "fig8 SLO references" `Quick test_fig8_slo_references;
        Alcotest.test_case "fig8 rates at 4-worker capacity" `Quick test_fig8_rates;
      ] );
  ]
