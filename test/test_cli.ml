(* End-to-end tests of the lpctl binary: every rejected input exits 1
   with exactly one stderr line (never 125, cmdliner's uncaught-
   exception status), and the run output modes write what they
   promise. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lpctl =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "lpctl.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_file suffix = Filename.temp_file "lpctl_test" suffix

(* Run lpctl with [args]; returns (exit status, stdout, stderr). *)
let lpctl_run args =
  let out = temp_file ".out" and err = temp_file ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Unix.create_process lpctl (Array.of_list (lpctl :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let result = (status, read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

let expect_rejected args =
  let what = String.concat " " args in
  let status, _, err = lpctl_run args in
  check_int (what ^ ": exit status") 1 status;
  let lines = String.split_on_char '\n' err in
  check_bool
    (Printf.sprintf "%s: exactly one stderr line, got %S" what err)
    true
    (List.length lines = 2 && List.nth lines 0 <> "" && List.nth lines 1 = "")

let test_rejections () =
  List.iter
    (fun spec -> expect_rejected [ "run"; spec ])
    [
      "dur=0ms";
      "dur=10ms; warmup=20ms";
      "guard={retry}";
      "fleet={n=2;steal}; guard={timeout=100us;retry}";
      "workers=0";
      "bogus=1";
      "fleet={n=0}";
      "fleet={n=2;lb=bogus}";
    ];
  (* An existing path that cannot be read as a file. *)
  expect_rejected [ "run"; Filename.current_dir_name ];
  expect_rejected [ "run"; "dur=5ms"; "-s"; "quantum=bogus" ];
  (* Valid specs whose run measures no completion (10 rps for 20 ms). *)
  let idle = "workers=1; src=exp:1ms; arrival=poisson:10; dur=20ms" in
  List.iter expect_rejected
    [
      [ "run"; idle ];
      [ "run"; idle ^ "; fleet={n=2}" ];
      [ "run"; idle ^ "; sys=shinjuku" ];
      [ "run"; "workers=1; quantum=500us; src=exp:1ms; arrival=poisson:10; dur=20ms"; "--rt" ];
    ]

let test_modes_need_one_lp_server () =
  (* A rejected mode fails before simulating, so it writes no file. *)
  let out = Filename.concat (Filename.get_temp_dir_name ()) "lpctl_test_rejected.out" in
  List.iter
    (fun mode ->
      expect_rejected ([ "run"; "dur=5ms" ] @ mode @ [ "--rt" ]);
      expect_rejected ([ "run"; "dur=5ms" ] @ mode @ [ "--print" ]);
      expect_rejected ([ "run"; "dur=5ms; fleet={n=2}" ] @ mode);
      expect_rejected ([ "run"; "sys=shinjuku; dur=5ms" ] @ mode);
      check_bool "no output file" false (Sys.file_exists out))
    [ [ "--trace"; out ]; [ "--top" ]; [ "--metrics-out"; out ] ]

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_trace_mode () =
  let path = temp_file ".json" in
  let status, out, _ = lpctl_run [ "run"; "dur=5ms"; "--trace"; path ] in
  check_int "exit status" 0 status;
  let json = read_file path in
  Sys.remove path;
  let b = count_sub json "\"ph\":\"B\"" and e = count_sub json "\"ph\":\"E\"" in
  check_bool "spans recorded" true (b > 0);
  check_int "every B has its E" b e;
  check_int "breakdown printed" 1 (count_sub out "per-request breakdown:");
  check_int "metrics snapshot printed" 1 (count_sub out "metrics:")

let test_metrics_out_mode () =
  let path = temp_file ".prom" in
  let status, _, _ = lpctl_run [ "run"; "dur=5ms"; "--metrics-out"; path ] in
  check_int "exit status" 0 status;
  let prom = read_file path in
  Sys.remove path;
  check_bool "lp_requests_completed exported" true
    (count_sub prom "lp_requests_completed" > 0)

let test_top_mode_prints_final_frame () =
  (* stdout is a file here, not a terminal: one final frame, no repaints. *)
  let status, out, _ = lpctl_run [ "run"; "dur=5ms"; "--top" ] in
  check_int "exit status" 0 status;
  check_int "one frame" 1 (count_sub out "lpctl top ");
  check_int "no screen clears" 0 (count_sub out "\027[2J");
  check_int "run summary" 1 (count_sub out "run summary:")

let test_print_ends_with_newline () =
  let status, out, _ = lpctl_run [ "run"; "workers=2; dur=5ms"; "--print" ] in
  check_int "exit status" 0 status;
  check_bool (Printf.sprintf "%S ends with a newline" out) true
    (String.length out > 0 && out.[String.length out - 1] = '\n')

let suites =
  [
    ( "cli.lpctl",
      [
        Alcotest.test_case "rejections exit 1 with one line" `Quick test_rejections;
        Alcotest.test_case "modes need one lp server" `Quick test_modes_need_one_lp_server;
        Alcotest.test_case "trace mode" `Quick test_trace_mode;
        Alcotest.test_case "metrics-out mode" `Quick test_metrics_out_mode;
        Alcotest.test_case "top mode prints final frame" `Quick
          test_top_mode_prints_final_frame;
        Alcotest.test_case "print ends with newline" `Quick test_print_ends_with_newline;
      ] );
  ]
