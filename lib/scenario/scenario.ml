(* Declarative scenario specs: symbolic AST, compact textual syntax
   (the Fault.parse DSL precedent scaled up), canonical printer with
   parse (print s) = Ok s, and the lowering into Server/Cluster runs.

   The AST is deliberately closure-free so specs compare structurally;
   every closure-bearing object (policies, sources, arrivals, plans)
   is built only at lowering time. *)

type cls = Lc | Be

type dist =
  | A1
  | A2
  | B
  | C
  | Const of int
  | Exp of int
  | Bimodal of { short_ns : int; long_ns : int; long_fraction : float }
  | Lognormal of { mean_ns : int; std_ns : int }
  | Pareto of { scale_ns : int; shape : float }

type source =
  | Dist of dist * cls
  | Mica
  | Zlib
  | Mix of (float * source) list
  | Tenants of { theta : float; tenants : source list }

type rate = Abs of float | Load of float

type arrival =
  | Poisson of rate
  | Uniform of rate
  | Bursty of { base : rate; spike : rate; period_ns : int; spike_fraction : float }
  | Flash of {
      base : rate;
      peak : rate;
      start_ns : int;
      ramp_ns : int;
      hold_ns : int;
      decay_ns : int;
    }
  | Diurnal of { base : rate; amplitude : float; period_ns : int }
  | Mmpp of { rates : rate list; mean_hold_ns : int; seed : int64 }
  | Piecewise of (int * arrival) list

type quantum =
  | No_preempt
  | Fixed of int
  | Adaptive of { init_ns : int; ctl : Preemptible.Quantum_controller.config }

type system = Lp | Lp_nouintr | Shinjuku | Libinger | Nopreempt | Go

type bucket = { b_rate : rate; b_burst : float }

type retry = {
  r_attempts : int;
  r_backoff_ns : int;
  r_max_backoff_ns : int;
  r_jitter : float;
  r_budget : bucket option;
}

type guard = {
  g_timeout_ns : int option;
  g_drop_expired : bool;
  g_shed : Guard.shed_config option;
  g_bucket : bucket option;
  g_lc_bucket : bucket option;
  g_be_bucket : bucket option;
  g_retry : retry option;
  g_brownout : Guard.brownout_config option;
}

type discipline = Fifo | Srpt | Edf of int

type fleet = {
  f_n : int;
  f_lb : Cluster.lb;
  f_steal : Cluster.steal option;
  f_workers : int list option;
}

type t = {
  name : string option;
  system : system;
  workers : int;
  quantum : quantum;
  max_load : rate option;
  capref : int option;
  src : source;
  arrival : arrival;
  duration_ns : int;
  warmup_ns : int;
  seed : int64;
  window_ns : int option;
  dispatch_ns : int option;
  discipline : discipline option;
  cancel_ns : int option;
  guard : guard option;
  faults : string option;
  watchdog : bool;
  fleet : fleet option;
}

let default_adaptive_init_ns = 20_000

let default =
  {
    name = None;
    system = Lp;
    workers = 4;
    quantum = Fixed 5_000;
    max_load = None;
    capref = None;
    src = Dist (A1, Lc);
    arrival = Poisson (Load 0.7);
    duration_ns = 100_000_000;
    warmup_ns = 0;
    seed = 42L;
    window_ns = None;
    dispatch_ns = None;
    discipline = None;
    cancel_ns = None;
    guard = None;
    faults = None;
    watchdog = false;
    fleet = None;
  }

let empty_guard =
  {
    g_timeout_ns = None;
    g_drop_expired = false;
    g_shed = None;
    g_bucket = None;
    g_lc_bucket = None;
    g_be_bucket = None;
    g_retry = None;
    g_brownout = None;
  }

(* The symbolic twin of Guard.default_retry. *)
let default_retry =
  {
    r_attempts = Guard.default_retry.Guard.max_attempts;
    r_backoff_ns = Guard.default_retry.Guard.backoff_ns;
    r_max_backoff_ns = Guard.default_retry.Guard.max_backoff_ns;
    r_jitter = Guard.default_retry.Guard.jitter;
    r_budget = None;
  }

let system_name = function
  | Lp -> "lp"
  | Lp_nouintr -> "lp-nouintr"
  | Shinjuku -> "shinjuku"
  | Libinger -> "libinger"
  | Nopreempt -> "nopreempt"
  | Go -> "go"

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error = { pos : int; field : string; msg : string }

exception Err of error

let err pos field msg = raise (Err { pos; field; msg })

let pp_error fmt e =
  Format.fprintf fmt "scenario: field '%s' at offset %d: %s" e.field e.pos e.msg

let error_to_string e = Format.asprintf "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal form that parses back to the same float, so the
   round-trip property holds for arbitrary values. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let exact fmt =
      let s = Printf.sprintf fmt f in
      if float_of_string s = f then Some s else None
    in
    match exact "%g" with
    | Some s -> s
    | None -> (
      match exact "%.12g" with Some s -> s | None -> Printf.sprintf "%.17g" f)

let time_str t =
  if t <> 0 && t mod 1_000_000_000 = 0 then
    Printf.sprintf "%ds" (t / 1_000_000_000)
  else if t <> 0 && t mod 1_000_000 = 0 then
    Printf.sprintf "%dms" (t / 1_000_000)
  else if t <> 0 && t mod 1_000 = 0 then Printf.sprintf "%dus" (t / 1_000)
  else Printf.sprintf "%dns" t

let rate_str = function Abs f -> float_str f | Load l -> float_str l ^ "x"

let dist_str = function
  | A1 -> "a1"
  | A2 -> "a2"
  | B -> "b"
  | C -> "c"
  | Const t -> "const:" ^ time_str t
  | Exp t -> "exp:" ^ time_str t
  | Bimodal { short_ns; long_ns; long_fraction } ->
    Printf.sprintf "bimodal:%s:%s:%s" (time_str short_ns) (time_str long_ns)
      (float_str long_fraction)
  | Lognormal { mean_ns; std_ns } ->
    Printf.sprintf "lognormal:%s:%s" (time_str mean_ns) (time_str std_ns)
  | Pareto { scale_ns; shape } ->
    Printf.sprintf "pareto:%s:%s" (time_str scale_ns) (float_str shape)

let rec source_str = function
  | Dist (d, Lc) -> dist_str d
  | Dist (d, Be) -> dist_str d ^ "@be"
  | Mica -> "mica"
  | Zlib -> "zlib"
  | Mix items ->
    "mix("
    ^ String.concat ","
        (List.map (fun (w, s) -> float_str w ^ "*" ^ source_str s) items)
    ^ ")"
  | Tenants { theta; tenants } ->
    "tenants:" ^ float_str theta ^ "("
    ^ String.concat "," (List.map source_str tenants)
    ^ ")"

let rec arrival_str = function
  | Poisson r -> "poisson:" ^ rate_str r
  | Uniform r -> "uniform:" ^ rate_str r
  | Bursty { base; spike; period_ns; spike_fraction } ->
    Printf.sprintf "bursty:%s:%s:%s:%s" (rate_str base) (rate_str spike)
      (time_str period_ns) (float_str spike_fraction)
  | Flash { base; peak; start_ns; ramp_ns; hold_ns; decay_ns } ->
    Printf.sprintf "flash:%s:%s:%s:%s:%s:%s" (rate_str base) (rate_str peak)
      (time_str start_ns) (time_str ramp_ns) (time_str hold_ns)
      (time_str decay_ns)
  | Diurnal { base; amplitude; period_ns } ->
    Printf.sprintf "diurnal:%s:%s:%s" (rate_str base) (float_str amplitude)
      (time_str period_ns)
  | Mmpp { rates; mean_hold_ns; seed } ->
    Printf.sprintf "mmpp:%s:%s:%Ld"
      (String.concat "/" (List.map rate_str rates))
      (time_str mean_hold_ns) seed
  | Piecewise segs ->
    "piecewise("
    ^ String.concat ","
        (List.map
           (fun (until, a) -> time_str until ^ ":" ^ arrival_str a)
           segs)
    ^ ")"

let bucket_str b = rate_str b.b_rate ^ ":" ^ float_str b.b_burst

let sub_block fields = "{" ^ String.concat ";" fields ^ "}"

let ctl_str (c : Preemptible.Quantum_controller.config) =
  let d = Preemptible.Quantum_controller.default_config in
  let fs = ref [] in
  let add k v = fs := (k ^ "=" ^ v) :: !fs in
  if c.t_max_ns <> d.t_max_ns then add "tmax" (time_str c.t_max_ns);
  if c.t_min_ns <> d.t_min_ns then add "tmin" (time_str c.t_min_ns);
  if c.q_threshold <> d.q_threshold then
    add "qthresh" (string_of_int c.q_threshold);
  if c.l_low_fraction <> d.l_low_fraction then
    add "llow" (float_str c.l_low_fraction);
  if c.l_high_fraction <> d.l_high_fraction then
    add "lhigh" (float_str c.l_high_fraction);
  if c.k3_ns <> d.k3_ns then add "k3" (time_str c.k3_ns);
  if c.k2_ns <> d.k2_ns then add "k2" (time_str c.k2_ns);
  if c.k1_ns <> d.k1_ns then add "k1" (time_str c.k1_ns);
  sub_block !fs

let shed_str (s : Guard.shed_config) =
  let d = Guard.default_shed in
  if s = d then "shed"
  else begin
    let fs = ref [] in
    let add k v = fs := (k ^ "=" ^ v) :: !fs in
    if s.codel_interval_ns <> d.codel_interval_ns then
      add "interval" (time_str s.codel_interval_ns);
    if s.codel_target_ns <> d.codel_target_ns then
      add "target" (time_str s.codel_target_ns);
    if s.max_queue <> d.max_queue then add "q" (string_of_int s.max_queue);
    "shed=" ^ sub_block !fs
  end

let retry_str (r : retry) =
  if r = default_retry then "retry"
  else begin
    let d = default_retry in
    let fs = ref [] in
    let add k v = fs := (k ^ "=" ^ v) :: !fs in
    (match r.r_budget with
    | Some b -> add "budget" (bucket_str b)
    | None -> ());
    if r.r_jitter <> d.r_jitter then add "jitter" (float_str r.r_jitter);
    if r.r_max_backoff_ns <> d.r_max_backoff_ns then
      add "max" (time_str r.r_max_backoff_ns);
    if r.r_backoff_ns <> d.r_backoff_ns then
      add "backoff" (time_str r.r_backoff_ns);
    if r.r_attempts <> d.r_attempts then
      add "attempts" (string_of_int r.r_attempts);
    "retry=" ^ sub_block !fs
  end

let brownout_str (b : Guard.brownout_config) =
  let d = Guard.default_brownout in
  if b = d then "brownout"
  else begin
    let fs = ref [] in
    let add k v = fs := (k ^ "=" ^ v) :: !fs in
    if b.probe_every <> d.probe_every then
      add "probe" (string_of_int b.probe_every);
    if b.timeout_shrink <> d.timeout_shrink then
      add "shrink" (float_str b.timeout_shrink);
    if b.recover_windows <> d.recover_windows then
      add "recover" (string_of_int b.recover_windows);
    if b.trip_windows <> d.trip_windows then
      add "trip" (string_of_int b.trip_windows);
    if b.qlen_trip <> d.qlen_trip then add "qlen" (string_of_int b.qlen_trip);
    if b.p99_trip_ns <> d.p99_trip_ns then add "p99" (time_str b.p99_trip_ns);
    "brownout=" ^ sub_block !fs
  end

let guard_str g =
  let fs = ref [] in
  let add s = fs := s :: !fs in
  (match g.g_brownout with Some b -> add (brownout_str b) | None -> ());
  (match g.g_retry with Some r -> add (retry_str r) | None -> ());
  (match g.g_be_bucket with
  | Some b -> add ("be-bucket=" ^ bucket_str b)
  | None -> ());
  (match g.g_lc_bucket with
  | Some b -> add ("lc-bucket=" ^ bucket_str b)
  | None -> ());
  (match g.g_bucket with Some b -> add ("bucket=" ^ bucket_str b) | None -> ());
  (match g.g_shed with Some s -> add (shed_str s) | None -> ());
  if g.g_drop_expired then add "expire";
  (match g.g_timeout_ns with
  | Some t -> add ("timeout=" ^ time_str t)
  | None -> ());
  sub_block !fs

let steal_str (s : Cluster.steal) =
  Printf.sprintf "%s:%d:%d" (time_str s.interval_ns) s.threshold s.batch

let fleet_str f =
  let fs = ref [] in
  let add s = fs := s :: !fs in
  (match f.f_workers with
  | Some l -> add ("workers=" ^ String.concat "/" (List.map string_of_int l))
  | None -> ());
  (match f.f_steal with
  | Some s -> add (if s = Cluster.default_steal then "steal" else "steal=" ^ steal_str s)
  | None -> ());
  if f.f_lb <> Cluster.Random then add ("lb=" ^ Cluster.lb_name f.f_lb);
  add ("n=" ^ string_of_int f.f_n);
  sub_block !fs

let discipline_str = function
  | Fifo -> "fifo"
  | Srpt -> "srpt"
  | Edf slo -> "edf:" ^ time_str slo

let quantum_str = function
  | No_preempt -> "none"
  | Fixed t -> time_str t
  | Adaptive { init_ns; _ } ->
    if init_ns = default_adaptive_init_ns then "adaptive"
    else "adaptive:" ^ time_str init_ns

let to_string s =
  let d = default in
  let fs = ref [] in
  let add k v = fs := (k ^ "=" ^ v) :: !fs in
  let flag k = fs := k :: !fs in
  (match s.fleet with Some f -> add "fleet" (fleet_str f) | None -> ());
  if s.watchdog then flag "watchdog";
  (match s.faults with Some f -> add "faults" ("{" ^ f ^ "}") | None -> ());
  (match s.guard with Some g -> add "guard" (guard_str g) | None -> ());
  (match s.cancel_ns with Some t -> add "cancel" (time_str t) | None -> ());
  (match s.discipline with
  | Some x -> add "discipline" (discipline_str x)
  | None -> ());
  (match s.dispatch_ns with Some t -> add "dispatch" (time_str t) | None -> ());
  (match s.window_ns with Some t -> add "window" (time_str t) | None -> ());
  if s.seed <> d.seed then add "seed" (Int64.to_string s.seed);
  if s.warmup_ns <> d.warmup_ns then add "warmup" (time_str s.warmup_ns);
  if s.duration_ns <> d.duration_ns then add "dur" (time_str s.duration_ns);
  if s.arrival <> d.arrival then add "arrival" (arrival_str s.arrival);
  if s.src <> d.src then add "src" (source_str s.src);
  (match s.capref with Some w -> add "capref" (string_of_int w) | None -> ());
  (match s.max_load with Some r -> add "maxload" (rate_str r) | None -> ());
  (match s.quantum with
  | Adaptive { ctl; _ }
    when ctl <> Preemptible.Quantum_controller.default_config ->
    add "ctl" (ctl_str ctl)
  | _ -> ());
  if s.quantum <> d.quantum then add "quantum" (quantum_str s.quantum);
  if s.workers <> d.workers then add "workers" (string_of_int s.workers);
  if s.system <> d.system then add "sys" (system_name s.system);
  (match s.name with Some n -> add "name" n | None -> ());
  String.concat ";" !fs

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Blank out #-comments in place so byte offsets in errors keep
   pointing into the original text. *)
let strip_comments s =
  let b = Bytes.of_string s in
  let in_comment = ref false in
  String.iteri
    (fun i c ->
      if c = '\n' then in_comment := false
      else if c = '#' then in_comment := true;
      if !in_comment then Bytes.set b i ' ')
    s;
  Bytes.to_string b

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

let trim_off (off, s) =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_space s.[!i] do incr i done;
  let j = ref (n - 1) in
  while !j >= !i && is_space s.[!j] do decr j done;
  (off + !i, String.sub s !i (!j - !i + 1))

(* Split [s] (whose first byte sits at absolute offset [pos0]) on
   top-level separator characters, respecting {} and () nesting.
   Returns trimmed non-empty parts with their absolute offsets. *)
let split_top ~pos0 ~seps s =
  let n = String.length s in
  let parts = ref [] in
  let depth = ref 0 in
  let start = ref 0 in
  let push i =
    if i > !start then parts := (pos0 + !start, String.sub s !start (i - !start)) :: !parts
  in
  String.iteri
    (fun i c ->
      if c = '{' || c = '(' then incr depth
      else if c = '}' || c = ')' then begin
        decr depth;
        if !depth < 0 then err (pos0 + i) "scenario" "unbalanced '}' or ')'"
      end
      else if !depth = 0 && List.mem c seps then begin
        push i;
        start := i + 1
      end)
    s;
  if !depth > 0 then err (pos0 + n) "scenario" "unbalanced '{' or '('";
  push n;
  List.rev !parts
  |> List.map trim_off
  |> List.filter (fun (_, p) -> p <> "")

(* Split one field into key / optional value at the first top-level '='. *)
let split_kv (off, s) =
  let n = String.length s in
  let depth = ref 0 in
  let eq = ref (-1) in
  (try
     String.iteri
       (fun i c ->
         if c = '{' || c = '(' then incr depth
         else if c = '}' || c = ')' then decr depth
         else if c = '=' && !depth = 0 then begin
           eq := i;
           raise Exit
         end)
       s
   with Exit -> ());
  if !eq < 0 then ((off, s), None)
  else
    let key = trim_off (off, String.sub s 0 !eq) in
    let v = trim_off (off + !eq + 1, String.sub s (!eq + 1) (n - !eq - 1)) in
    (key, Some v)

let parse_int ~field (pos, s) =
  match int_of_string_opt s with
  | Some v -> v
  | None -> err pos field (Printf.sprintf "expected an integer, got %S" s)

let parse_int64 ~field (pos, s) =
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> err pos field (Printf.sprintf "expected an integer seed, got %S" s)

let parse_float ~field (pos, s) =
  match float_of_string_opt s with
  | Some v -> v
  | None -> err pos field (Printf.sprintf "expected a number, got %S" s)

let parse_time ~field (pos, s) =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
  if !i = 0 then
    err pos field (Printf.sprintf "expected a duration like 5us, got %S" s)
  else
    let v = int_of_string (String.sub s 0 !i) in
    let unit = String.sub s !i (n - !i) in
    let scale =
      match unit with
      | "ns" -> 1
      | "us" -> 1_000
      | "ms" -> 1_000_000
      | "s" -> 1_000_000_000
      | _ ->
        err (pos + !i) field
          (Printf.sprintf "unknown time unit %S (ns|us|ms|s)" unit)
    in
    v * scale

let parse_rate ~field (pos, s) =
  let n = String.length s in
  if n = 0 then err pos field "empty rate" else
  let last = s.[n - 1] in
  let num suffix = (pos, String.sub s 0 (n - String.length suffix)) in
  match last with
  | 'x' -> Load (parse_float ~field (num "x"))
  | 'k' -> Abs (parse_float ~field (num "k") *. 1e3)
  | 'M' -> Abs (parse_float ~field (num "M") *. 1e6)
  | _ -> Abs (parse_float ~field (pos, s))

(* "prefix:a:b:c" -> parts after the leading keyword, as (pos, part). *)
let colon_parts ~pos0 s = split_top ~pos0 ~seps:[ ':' ] s

let parse_dist ~field (pos, s) =
  match String.lowercase_ascii s with
  | "a1" -> A1
  | "a2" -> A2
  | "b" -> B
  | "c" -> C
  | _ -> (
    match colon_parts ~pos0:pos s with
    | [ (_, "const"); t ] -> Const (parse_time ~field t)
    | [ (_, "exp"); t ] -> Exp (parse_time ~field t)
    | [ (_, "bimodal"); s1; s2; f ] ->
      Bimodal
        {
          short_ns = parse_time ~field s1;
          long_ns = parse_time ~field s2;
          long_fraction = parse_float ~field f;
        }
    | [ (_, "lognormal"); m; sd ] ->
      Lognormal { mean_ns = parse_time ~field m; std_ns = parse_time ~field sd }
    | [ (_, "pareto"); sc; sh ] ->
      Pareto { scale_ns = parse_time ~field sc; shape = parse_float ~field sh }
    | _ ->
      err pos field
        (Printf.sprintf
           "unknown workload %S (a1|a2|b|c|const:T|exp:T|bimodal:T:T:F|lognormal:T:T|pareto:T:F)"
           s))

(* The inner payload of a "kw(...)" form, or None. *)
let paren_payload ~kw (pos, s) =
  let pre = kw ^ "(" in
  let np = String.length pre in
  if
    String.length s > np
    && String.lowercase_ascii (String.sub s 0 np) = pre
    && s.[String.length s - 1] = ')'
  then Some (pos + np, String.sub s np (String.length s - np - 1))
  else None

let rec parse_source ~field (pos, s) =
  match paren_payload ~kw:"mix" (pos, s) with
  | Some (ipos, inner) ->
    let items =
      split_top ~pos0:ipos ~seps:[ ',' ] inner
      |> List.map (fun (ioff, item) ->
             match String.index_opt item '*' with
             | Some st ->
               let w = parse_float ~field (trim_off (ioff, String.sub item 0 st)) in
               let sub =
                 trim_off
                   (ioff + st + 1, String.sub item (st + 1) (String.length item - st - 1))
               in
               (w, parse_source ~field sub)
             | None -> err ioff field "mix items are WEIGHT*SOURCE")
    in
    if items = [] then err pos field "mix(...) needs at least one item";
    Mix items
  | None -> (
    let low = String.lowercase_ascii s in
    if low = "mica" then Mica
    else if low = "zlib" then Zlib
    else if String.length low >= 8 && String.sub low 0 8 = "tenants:" then begin
      match String.index_opt s '(' with
      | Some op when s.[String.length s - 1] = ')' ->
        let theta = parse_float ~field (trim_off (pos + 8, String.sub s 8 (op - 8))) in
        let inner = String.sub s (op + 1) (String.length s - op - 2) in
        let tenants =
          split_top ~pos0:(pos + op + 1) ~seps:[ ',' ] inner
          |> List.map (parse_source ~field)
        in
        if tenants = [] then err pos field "tenants needs at least one source";
        Tenants { theta; tenants }
      | _ -> err pos field "tenants syntax is tenants:THETA(SRC,...)"
    end
    else
      (* optional @lc / @be class suffix on a plain distribution *)
      match String.rindex_opt s '@' with
      | Some at ->
        let d = parse_dist ~field (trim_off (pos, String.sub s 0 at)) in
        let c =
          match String.lowercase_ascii (String.sub s (at + 1) (String.length s - at - 1)) with
          | "lc" -> Lc
          | "be" -> Be
          | other ->
            err (pos + at + 1) field
              (Printf.sprintf "unknown request class %S (lc|be)" other)
        in
        Dist (d, c)
      | None -> Dist (parse_dist ~field (pos, s), Lc))

let rec parse_arrival ~field (pos, s) =
  match paren_payload ~kw:"piecewise" (pos, s) with
  | Some (ipos, inner) ->
    let segs =
      split_top ~pos0:ipos ~seps:[ ',' ] inner
      |> List.map (fun (ioff, item) ->
             match String.index_opt item ':' with
             | Some c ->
               let until = parse_time ~field (trim_off (ioff, String.sub item 0 c)) in
               let a =
                 parse_arrival ~field
                   (trim_off
                      (ioff + c + 1, String.sub item (c + 1) (String.length item - c - 1)))
               in
               (until, a)
             | None -> err ioff field "piecewise segments are UNTIL:ARRIVAL")
    in
    if segs = [] then err pos field "piecewise(...) needs at least one segment";
    Piecewise segs
  | None -> (
    match colon_parts ~pos0:pos s with
    | [ (_, "poisson"); r ] -> Poisson (parse_rate ~field r)
    | [ (_, "uniform"); r ] -> Uniform (parse_rate ~field r)
    | [ (_, "bursty"); b; sp; p; f ] ->
      Bursty
        {
          base = parse_rate ~field b;
          spike = parse_rate ~field sp;
          period_ns = parse_time ~field p;
          spike_fraction = parse_float ~field f;
        }
    | [ (_, "flash"); b; pk; st; rm; h; dc ] ->
      Flash
        {
          base = parse_rate ~field b;
          peak = parse_rate ~field pk;
          start_ns = parse_time ~field st;
          ramp_ns = parse_time ~field rm;
          hold_ns = parse_time ~field h;
          decay_ns = parse_time ~field dc;
        }
    | [ (_, "diurnal"); b; a; p ] ->
      Diurnal
        {
          base = parse_rate ~field b;
          amplitude = parse_float ~field a;
          period_ns = parse_time ~field p;
        }
    | [ (_, "mmpp"); (rpos, rs); h; sd ] ->
      let rates =
        split_top ~pos0:rpos ~seps:[ '/' ] rs |> List.map (parse_rate ~field)
      in
      Mmpp
        {
          rates;
          mean_hold_ns = parse_time ~field h;
          seed = parse_int64 ~field sd;
        }
    | _ ->
      err pos field
        (Printf.sprintf
           "unknown arrival %S (poisson:R|uniform:R|bursty:R:R:T:F|flash:R:R:T:T:T:T|diurnal:R:F:T|mmpp:R/R:T:SEED|piecewise(T:A,...))"
           s))

let parse_bucket ~field (pos, s) =
  match colon_parts ~pos0:pos s with
  | [ r; b ] -> { b_rate = parse_rate ~field r; b_burst = parse_float ~field b }
  | _ -> err pos field (Printf.sprintf "expected RATE:BURST, got %S" s)

(* A value that must be a {...} block; returns the raw inner payload
   with its offset. *)
let brace_payload ~field (pos, s) =
  let n = String.length s in
  if n >= 2 && s.[0] = '{' && s.[n - 1] = '}' then
    (pos + 1, String.sub s 1 (n - 2))
  else err pos field "expected a {...} block"

let block_fields ~field v =
  let pos0, inner = brace_payload ~field v in
  split_top ~pos0 ~seps:[ ';'; '\n' ] inner |> List.map split_kv

let require ~field (kpos : int) = function
  | Some v -> v
  | None -> err kpos field "expected key=value"

let no_value ~field key = function
  | None -> ()
  | Some (vpos, _) ->
    err vpos field (Printf.sprintf "'%s' takes no value" key)

let parse_ctl ~field v base =
  List.fold_left
    (fun (c : Preemptible.Quantum_controller.config) ((kpos, key), value) ->
      let value () = require ~field kpos value in
      match String.lowercase_ascii key with
      | "k1" -> { c with k1_ns = parse_time ~field (value ()) }
      | "k2" -> { c with k2_ns = parse_time ~field (value ()) }
      | "k3" -> { c with k3_ns = parse_time ~field (value ()) }
      | "lhigh" -> { c with l_high_fraction = parse_float ~field (value ()) }
      | "llow" -> { c with l_low_fraction = parse_float ~field (value ()) }
      | "qthresh" -> { c with q_threshold = parse_int ~field (value ()) }
      | "tmin" -> { c with t_min_ns = parse_time ~field (value ()) }
      | "tmax" -> { c with t_max_ns = parse_time ~field (value ()) }
      | _ ->
        err kpos field
          (Printf.sprintf
             "unknown ctl knob %S (k1|k2|k3|lhigh|llow|qthresh|tmin|tmax)" key))
    base (block_fields ~field v)

let parse_shed ~field v =
  List.fold_left
    (fun (c : Guard.shed_config) ((kpos, key), value) ->
      let value () = require ~field kpos value in
      match String.lowercase_ascii key with
      | "q" -> { c with max_queue = parse_int ~field (value ()) }
      | "target" -> { c with codel_target_ns = parse_time ~field (value ()) }
      | "interval" -> { c with codel_interval_ns = parse_time ~field (value ()) }
      | _ ->
        err kpos field
          (Printf.sprintf "unknown shed knob %S (q|target|interval)" key))
    Guard.default_shed (block_fields ~field v)

let parse_retry ~field v =
  List.fold_left
    (fun (c : retry) ((kpos, key), value) ->
      let value () = require ~field kpos value in
      match String.lowercase_ascii key with
      | "attempts" -> { c with r_attempts = parse_int ~field (value ()) }
      | "backoff" -> { c with r_backoff_ns = parse_time ~field (value ()) }
      | "max" -> { c with r_max_backoff_ns = parse_time ~field (value ()) }
      | "jitter" -> { c with r_jitter = parse_float ~field (value ()) }
      | "budget" -> { c with r_budget = Some (parse_bucket ~field (value ())) }
      | _ ->
        err kpos field
          (Printf.sprintf
             "unknown retry knob %S (attempts|backoff|max|jitter|budget)" key))
    default_retry (block_fields ~field v)

let parse_brownout ~field v =
  List.fold_left
    (fun (c : Guard.brownout_config) ((kpos, key), value) ->
      let value () = require ~field kpos value in
      match String.lowercase_ascii key with
      | "p99" -> { c with p99_trip_ns = parse_time ~field (value ()) }
      | "qlen" -> { c with qlen_trip = parse_int ~field (value ()) }
      | "trip" -> { c with trip_windows = parse_int ~field (value ()) }
      | "recover" -> { c with recover_windows = parse_int ~field (value ()) }
      | "shrink" -> { c with timeout_shrink = parse_float ~field (value ()) }
      | "probe" -> { c with probe_every = parse_int ~field (value ()) }
      | _ ->
        err kpos field
          (Printf.sprintf
             "unknown brownout knob %S (p99|qlen|trip|recover|shrink|probe)"
             key))
    Guard.default_brownout (block_fields ~field v)

let parse_guard ~field v =
  List.fold_left
    (fun g ((kpos, key), vopt) ->
      let value () = require ~field kpos vopt in
      match String.lowercase_ascii key with
      | "timeout" -> { g with g_timeout_ns = Some (parse_time ~field (value ())) }
      | "expire" ->
        no_value ~field key vopt;
        { g with g_drop_expired = true }
      | "shed" -> (
        match vopt with
        | None -> { g with g_shed = Some Guard.default_shed }
        | Some v -> { g with g_shed = Some (parse_shed ~field v) })
      | "bucket" -> { g with g_bucket = Some (parse_bucket ~field (value ())) }
      | "lc-bucket" ->
        { g with g_lc_bucket = Some (parse_bucket ~field (value ())) }
      | "be-bucket" ->
        { g with g_be_bucket = Some (parse_bucket ~field (value ())) }
      | "retry" -> (
        match vopt with
        | None -> { g with g_retry = Some default_retry }
        | Some v -> { g with g_retry = Some (parse_retry ~field v) })
      | "brownout" -> (
        match vopt with
        | None -> { g with g_brownout = Some Guard.default_brownout }
        | Some v -> { g with g_brownout = Some (parse_brownout ~field v) })
      | _ ->
        err kpos field
          (Printf.sprintf
             "unknown guard knob %S \
              (timeout|expire|shed|bucket|lc-bucket|be-bucket|retry|brownout)"
             key))
    empty_guard (block_fields ~field v)

let parse_steal ~field (pos, s) =
  match colon_parts ~pos0:pos s with
  | [ i; t; b ] ->
    {
      Cluster.interval_ns = parse_time ~field i;
      threshold = parse_int ~field t;
      batch = parse_int ~field b;
    }
  | _ -> err pos field (Printf.sprintf "expected INTERVAL:THRESHOLD:BATCH, got %S" s)

let parse_fleet ~field v =
  let f =
    List.fold_left
      (fun f ((kpos, key), vopt) ->
        let value () = require ~field kpos vopt in
        match String.lowercase_ascii key with
        | "n" -> { f with f_n = parse_int ~field (value ()) }
        | "lb" -> (
          let vpos, vs = value () in
          match Cluster.lb_of_string (String.lowercase_ascii vs) with
          | Ok lb -> { f with f_lb = lb }
          | Error m -> err vpos field m)
        | "steal" -> (
          match vopt with
          | None -> { f with f_steal = Some Cluster.default_steal }
          | Some v -> { f with f_steal = Some (parse_steal ~field v) })
        | "workers" ->
          let vpos, vs = value () in
          let l =
            split_top ~pos0:vpos ~seps:[ '/' ] vs
            |> List.map (parse_int ~field)
          in
          { f with f_workers = Some l }
        | _ ->
          err kpos field
            (Printf.sprintf "unknown fleet knob %S (n|lb|steal|workers)" key))
      { f_n = 0; f_lb = Cluster.Random; f_steal = None; f_workers = None }
      (block_fields ~field v)
  in
  if f.f_n <= 0 then err (fst (brace_payload ~field v)) field "fleet needs n=N (>= 1)";
  f

let parse_quantum ~field current (pos, s) =
  let low = String.lowercase_ascii s in
  if low = "none" then No_preempt
  else if low = "adaptive" then
    match current with
    | Adaptive _ -> current
    | _ ->
      Adaptive
        {
          init_ns = default_adaptive_init_ns;
          ctl = Preemptible.Quantum_controller.default_config;
        }
  else if String.length low > 9 && String.sub low 0 9 = "adaptive:" then
    let init = parse_time ~field (pos + 9, String.sub s 9 (String.length s - 9)) in
    let ctl =
      match current with
      | Adaptive { ctl; _ } -> ctl
      | _ -> Preemptible.Quantum_controller.default_config
    in
    Adaptive { init_ns = init; ctl }
  else Fixed (parse_time ~field (pos, s))

let parse_system ~field (pos, s) =
  match String.lowercase_ascii s with
  | "lp" | "libpreemptible" -> Lp
  | "lp-nouintr" | "lp-signal" -> Lp_nouintr
  | "shinjuku" -> Shinjuku
  | "libinger" -> Libinger
  | "nopreempt" | "no-preempt" -> Nopreempt
  | "go" -> Go
  | other ->
    err pos field
      (Printf.sprintf
         "unknown system %S (lp|lp-nouintr|shinjuku|libinger|nopreempt|go)"
         other)

let parse_name ~field (pos, s) =
  String.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = '-' || c = '.'
      in
      if not ok then
        err (pos + i) field
          (Printf.sprintf "invalid character %C in name (use [A-Za-z0-9_.-])" c))
    s;
  if s = "" then err pos field "empty name";
  s

let parse_faults ~field v =
  let pos, raw = brace_payload ~field v in
  let raw = snd (trim_off (pos, raw)) in
  let scratch = Fault.create () in
  (match Fault.parse scratch raw with
  | Ok () -> ()
  | Error m -> err pos field m);
  raw

let parse_onto base text =
  let text = strip_comments text in
  let fields = split_top ~pos0:0 ~seps:[ ';'; '\n' ] text in
  let ctl_pending = ref None in
  let spec =
    List.fold_left
      (fun spec ((kpos, key), vopt) ->
        let field = key in
        let value () = require ~field kpos vopt in
        match String.lowercase_ascii key with
        | "name" -> { spec with name = Some (parse_name ~field (value ())) }
        | "sys" | "system" ->
          { spec with system = parse_system ~field (value ()) }
        | "workers" -> { spec with workers = parse_int ~field (value ()) }
        | "quantum" ->
          { spec with quantum = parse_quantum ~field spec.quantum (value ()) }
        | "ctl" ->
          ctl_pending := Some (kpos, value ());
          spec
        | "watchdog" -> (
          match vopt with
          | None -> { spec with watchdog = true }
          | Some (vpos, vs) -> (
            match String.lowercase_ascii vs with
            | "on" -> { spec with watchdog = true }
            | "off" -> { spec with watchdog = false }
            | other ->
              err vpos field (Printf.sprintf "expected on|off, got %S" other)))
        | "maxload" -> (
          let vpos, vs = value () in
          if String.lowercase_ascii vs = "auto" then
            { spec with max_load = None }
          else { spec with max_load = Some (parse_rate ~field (vpos, vs)) })
        | "capref" -> { spec with capref = Some (parse_int ~field (value ())) }
        | "src" | "workload" ->
          { spec with src = parse_source ~field (value ()) }
        | "arrival" -> { spec with arrival = parse_arrival ~field (value ()) }
        | "dur" | "duration" ->
          { spec with duration_ns = parse_time ~field (value ()) }
        | "warmup" -> { spec with warmup_ns = parse_time ~field (value ()) }
        | "seed" -> { spec with seed = parse_int64 ~field (value ()) }
        | "window" -> { spec with window_ns = Some (parse_time ~field (value ())) }
        | "dispatch" ->
          { spec with dispatch_ns = Some (parse_time ~field (value ())) }
        | "discipline" -> (
          let vpos, vs = value () in
          match String.lowercase_ascii vs with
          | "fifo" -> { spec with discipline = Some Fifo }
          | "srpt" -> { spec with discipline = Some Srpt }
          | other ->
            if String.length other > 4 && String.sub other 0 4 = "edf:" then
              { spec with
                discipline =
                  Some (Edf (parse_time ~field (vpos + 4, String.sub vs 4 (String.length vs - 4))));
              }
            else
              err vpos field
                (Printf.sprintf "unknown discipline %S (fifo|srpt|edf:SLO)" other))
        | "cancel" -> { spec with cancel_ns = Some (parse_time ~field (value ())) }
        | "guard" -> (
          let vpos, vs = value () in
          if String.lowercase_ascii vs = "off" then { spec with guard = None }
          else { spec with guard = Some (parse_guard ~field (vpos, vs)) })
        | "faults" -> (
          let vpos, vs = value () in
          if String.lowercase_ascii vs = "off" then { spec with faults = None }
          else { spec with faults = Some (parse_faults ~field (vpos, vs)) })
        | "fleet" -> (
          let vpos, vs = value () in
          if String.lowercase_ascii vs = "off" then { spec with fleet = None }
          else { spec with fleet = Some (parse_fleet ~field (vpos, vs)) })
        | _ ->
          err kpos key
            (Printf.sprintf "unknown field %S (see SCENARIOS.md)" key))
      base (List.map split_kv fields)
  in
  match !ctl_pending with
  | None -> spec
  | Some (kpos, v) -> (
    match spec.quantum with
    | Adaptive a ->
      { spec with quantum = Adaptive { a with ctl = parse_ctl ~field:"ctl" v a.ctl } }
    | _ -> err kpos "ctl" "ctl requires quantum=adaptive")

let override base text =
  match parse_onto base text with
  | spec -> Ok spec
  | exception Err e -> Error e

let of_string text = override default text

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error { pos = 0; field = "file"; msg }

(* ------------------------------------------------------------------ *)
(* Semantics / lowering                                                *)
(* ------------------------------------------------------------------ *)

let total_workers s =
  match s.fleet with
  | None -> s.workers
  | Some f -> (
    match f.f_workers with
    | Some l -> List.fold_left ( + ) 0 l
    | None -> f.f_n * s.workers)

let capref_workers s = match s.capref with Some c -> c | None -> total_workers s

let service_dist s = function
  | A1 -> Workload.Service_dist.workload_a1
  | A2 -> Workload.Service_dist.workload_a2
  | B -> Workload.Service_dist.workload_b
  | C -> Workload.Service_dist.workload_c ~duration_ns:s.duration_ns
  | Const t -> Workload.Service_dist.constant t
  | Exp t -> Workload.Service_dist.exponential ~mean_ns:t
  | Bimodal { short_ns; long_ns; long_fraction } ->
    Workload.Service_dist.bimodal ~short_ns ~long_ns ~long_fraction
  | Lognormal { mean_ns; std_ns } ->
    Workload.Service_dist.lognormal ~mean_ns ~std_ns
  | Pareto { scale_ns; shape } -> Workload.Service_dist.pareto ~scale_ns ~shape

let rec source_mean_ns s src ~now =
  match src with
  | Dist (d, _) -> Workload.Service_dist.mean_ns (service_dist s d) ~now
  | Mica | Zlib ->
    invalid_arg
      "scenario: mica/zlib sources have no analytic mean; use absolute rates \
       (and an explicit maxload for adaptive quanta)"
  | Mix items ->
    let tot = List.fold_left (fun a (w, _) -> a +. w) 0. items in
    List.fold_left
      (fun a (w, sub) -> a +. (w /. tot *. source_mean_ns s sub ~now))
      0. items
  | Tenants { theta; tenants } ->
    let n = List.length tenants in
    let z = Workload.Zipf.create ~n ~theta in
    List.fold_left
      (fun (a, i) sub ->
        (a +. (Workload.Zipf.probability z i *. source_mean_ns s sub ~now), i + 1))
      (0., 0) tenants
    |> fst

(* A phased source is as slow as its slowest phase, so size by the
   larger of start/end means. *)
let capacity_rps s =
  let mean_start = source_mean_ns s s.src ~now:0 in
  let mean_end = source_mean_ns s s.src ~now:(max 0 (s.duration_ns - 1)) in
  let mean = Float.max mean_start mean_end in
  float_of_int (capref_workers s) *. 1e9 /. mean

let rate_rps s = function Abs f -> f | Load l -> l *. capacity_rps s

let rec lower_source s = function
  | Dist (d, c) ->
    Workload.Source.of_dist (service_dist s d)
      ~cls:
        (match c with
        | Lc -> Workload.Request.Latency_critical
        | Be -> Workload.Request.Best_effort)
  | Mica -> Workload.Mica.source (Workload.Mica.create ())
  | Zlib -> Workload.Zlib_be.source (Workload.Zlib_be.create ())
  | Mix items -> Workload.Source.mix (List.map (fun (w, x) -> (w, lower_source s x)) items)
  | Tenants { theta; tenants } ->
    Workload.Source.tenants ~theta (List.map (lower_source s) tenants)

let source_sampler s = lower_source s s.src

let rec lower_arrival s = function
  | Poisson r -> Workload.Arrival.poisson ~rate_per_sec:(rate_rps s r)
  | Uniform r -> Workload.Arrival.uniform ~rate_per_sec:(rate_rps s r)
  | Bursty { base; spike; period_ns; spike_fraction } ->
    Workload.Arrival.bursty ~base_rate_per_sec:(rate_rps s base)
      ~spike_rate_per_sec:(rate_rps s spike) ~period_ns ~spike_fraction
  | Flash { base; peak; start_ns; ramp_ns; hold_ns; decay_ns } ->
    Workload.Arrival.flash_crowd ~base_rate_per_sec:(rate_rps s base)
      ~peak_rate_per_sec:(rate_rps s peak) ~start_ns ~ramp_ns ~hold_ns ~decay_ns
  | Diurnal { base; amplitude; period_ns } ->
    Workload.Arrival.diurnal ~base_rate_per_sec:(rate_rps s base) ~amplitude
      ~period_ns
  | Mmpp { rates; mean_hold_ns; seed } ->
    Workload.Arrival.mmpp
      ~rates_per_sec:(Array.of_list (List.map (rate_rps s) rates))
      ~mean_hold_ns ~seed
  | Piecewise segs ->
    Workload.Arrival.piecewise
      (List.map (fun (until, a) -> (until, lower_arrival s a)) segs)

let arrival_process s = lower_arrival s s.arrival

let lower_bucket s b =
  { Guard.rate_per_sec = rate_rps s b.b_rate; burst = b.b_burst }

let guard_config s =
  Option.map
    (fun g ->
      {
        Guard.timeout_ns = g.g_timeout_ns;
        drop_expired = g.g_drop_expired;
        shed = g.g_shed;
        global_bucket = Option.map (lower_bucket s) g.g_bucket;
        lc_bucket = Option.map (lower_bucket s) g.g_lc_bucket;
        be_bucket = Option.map (lower_bucket s) g.g_be_bucket;
        retry =
          Option.map
            (fun r ->
              {
                Guard.max_attempts = r.r_attempts;
                backoff_ns = r.r_backoff_ns;
                max_backoff_ns = r.r_max_backoff_ns;
                jitter = r.r_jitter;
                budget = Option.map (lower_bucket s) r.r_budget;
              })
            g.g_retry;
        brownout = g.g_brownout;
      })
    s.guard

let fault_plan s =
  Option.map
    (fun spec ->
      let plan = Fault.create ~seed:s.seed () in
      (match Fault.parse plan spec with
      | Ok () -> ()
      | Error m -> invalid_arg ("scenario: faults: " ^ m));
      plan)
    s.faults

(* [max_load] is a thunk so non-adaptive scenarios over app-model
   sources (no analytic mean) never compute a capacity. *)
let policy_of s ~max_load =
  match s.quantum with
  | No_preempt -> Preemptible.Policy.no_preempt
  | Fixed q -> Preemptible.Policy.fcfs_preempt ~quantum_ns:q
  | Adaptive { init_ns; ctl } ->
    Preemptible.Policy.adaptive
      (Preemptible.Quantum_controller.create ~config:ctl
         ~max_load_per_s:(max_load ()) ~initial_quantum_ns:init_ns ())

let mechanism s =
  match s.quantum with
  | No_preempt -> Preemptible.Server.No_mechanism
  | _ -> (
    match s.system with
    | Lp -> Preemptible.Server.Uintr_utimer Utimer.default_config
    | Lp_nouintr -> Preemptible.Server.Signal_utimer { poll_ns = 500 }
    | _ -> assert false)

let single_max_load s () =
  match s.max_load with Some r -> rate_rps s r | None -> capacity_rps s

let server_config_w s ~n_workers ~max_load =
  (match s.system with
  | Lp | Lp_nouintr -> ()
  | sys ->
    invalid_arg
      (Printf.sprintf
         "scenario: sys=%s builds its own config; server_config applies to \
          lp|lp-nouintr"
         (system_name sys)));
  let policy = policy_of s ~max_load in
  let cfg =
    Preemptible.Server.default_config ~n_workers ~policy ~mechanism:(mechanism s)
  in
  let cfg = { cfg with Preemptible.Server.seed = s.seed } in
  let cfg =
    match s.window_ns with
    | Some w -> { cfg with Preemptible.Server.stats_window_ns = w }
    | None -> cfg
  in
  let cfg =
    match s.dispatch_ns with
    | Some d -> { cfg with Preemptible.Server.dispatch_cost_ns = d }
    | None -> cfg
  in
  let cfg =
    match s.discipline with
    | Some Fifo -> { cfg with Preemptible.Server.discipline = Preemptible.Server.Fifo }
    | Some Srpt ->
      { cfg with Preemptible.Server.discipline = Preemptible.Server.Srpt_oracle }
    | Some (Edf slo) ->
      { cfg with Preemptible.Server.discipline = Preemptible.Server.Edf slo }
    | None -> cfg
  in
  let cfg = { cfg with Preemptible.Server.cancel_after_slo = s.cancel_ns } in
  let cfg = { cfg with Preemptible.Server.guard = guard_config s } in
  let cfg = { cfg with Preemptible.Server.faults = fault_plan s } in
  if s.watchdog then
    { cfg with Preemptible.Server.watchdog = Some Utimer.default_watchdog }
  else cfg

let server_config s =
  server_config_w s ~n_workers:s.workers ~max_load:(single_max_load s)

let cluster_config s =
  let f =
    match s.fleet with
    | Some f -> f
    | None -> invalid_arg "scenario: cluster_config requires a fleet={...} field"
  in
  let worker_counts =
    match f.f_workers with
    | Some l ->
      if List.length l <> f.f_n then
        invalid_arg
          (Printf.sprintf
             "scenario: fleet workers list has %d entries but n=%d"
             (List.length l) f.f_n);
      Array.of_list l
    | None -> Array.make f.f_n s.workers
  in
  (* Each member's adaptive controller gets an equal share of the
     fleet-wide max-load reference (the balancer spreads the stream). *)
  let member_max_load () = single_max_load s () /. float_of_int f.f_n in
  let members =
    Array.map
      (fun nw -> server_config_w s ~n_workers:nw ~max_load:member_max_load)
      worker_counts
  in
  {
    Cluster.members;
    lb = f.f_lb;
    steal = f.f_steal;
    seed = s.seed;
    max_events = 400_000_000;
    tick_ns = None;
  }

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = Server of Preemptible.Server.result | Fleet of Cluster.result

let baseline_reject s name =
  let reject what =
    invalid_arg (Printf.sprintf "scenario: sys=%s does not support %s" name what)
  in
  if s.guard <> None then reject "guard";
  if s.faults <> None then reject "faults";
  if s.watchdog then reject "watchdog";
  if s.window_ns <> None then reject "window";
  if s.dispatch_ns <> None then reject "dispatch";
  if s.discipline <> None then reject "discipline";
  if s.cancel_ns <> None then reject "cancel";
  if s.fleet <> None then reject "fleet (fleets need sys=lp|lp-nouintr)"

let baseline_quantum s name =
  match s.quantum with
  | Fixed q -> q
  | No_preempt -> max_int
  | Adaptive _ ->
    invalid_arg
      (Printf.sprintf
         "scenario: sys=%s has a static quantum; quantum=adaptive needs \
          sys=lp|lp-nouintr"
         name)

let run_server ?probes s =
  if s.fleet <> None then
    invalid_arg "scenario: fleet scenario; use run_fleet";
  let arrival = arrival_process s in
  let source = source_sampler s in
  let duration_ns = s.duration_ns in
  let warmup_ns = s.warmup_ns in
  match s.system with
  | Lp | Lp_nouintr ->
    Preemptible.Server.run ?probes ~warmup_ns (server_config s) ~arrival ~source
      ~duration_ns
  | Shinjuku ->
    baseline_reject s "shinjuku";
    let quantum_ns = baseline_quantum s "shinjuku" in
    let cfg = Baselines.Shinjuku.default_config ~n_workers:s.workers ~quantum_ns in
    Baselines.Shinjuku.run ?probes ~warmup_ns
      { cfg with Baselines.Shinjuku.seed = s.seed }
      ~arrival ~source ~duration_ns
  | Libinger ->
    baseline_reject s "libinger";
    let quantum_ns = baseline_quantum s "libinger" in
    let cfg = Baselines.Libinger.default_config ~n_workers:s.workers ~quantum_ns in
    Baselines.Libinger.run ?probes ~warmup_ns
      { cfg with Baselines.Libinger.seed = s.seed }
      ~arrival ~source ~duration_ns
  | Nopreempt ->
    baseline_reject s "nopreempt";
    (match s.quantum with
    | No_preempt | Fixed _ -> ()
    | Adaptive _ -> ignore (baseline_quantum s "nopreempt"));
    let cfg = Baselines.Nopreempt.default_config ~n_workers:s.workers in
    Baselines.Nopreempt.run ?probes ~warmup_ns
      { cfg with Baselines.Nopreempt.seed = s.seed }
      ~arrival ~source ~duration_ns
  | Go ->
    baseline_reject s "go";
    let cfg = Baselines.Goruntime.default_config ~n_workers:s.workers in
    (* Go keeps its native 10 ms slice unless the scenario names a
       quantum explicitly (the generic 5 us default would mislead). *)
    let cfg =
      if s.quantum = default.quantum then cfg
      else
        { cfg with Baselines.Goruntime.quantum_ns = baseline_quantum s "go" }
    in
    Baselines.Goruntime.run ?probes ~warmup_ns
      { cfg with Baselines.Goruntime.seed = s.seed }
      ~arrival ~source ~duration_ns

let run_fleet ?probes s =
  (match s.system with
  | Lp | Lp_nouintr -> ()
  | sys ->
    invalid_arg
      (Printf.sprintf "scenario: fleets need sys=lp|lp-nouintr (got %s)"
         (system_name sys)));
  Cluster.run ?probes ~warmup_ns:s.warmup_ns (cluster_config s)
    ~arrival:(arrival_process s) ~source:(source_sampler s)
    ~duration_ns:s.duration_ns

let run s =
  if s.fleet <> None then Fleet (run_fleet s) else Server (run_server s)

let validate s =
  match
    let fleet_workers =
      match s.fleet with Some { f_workers = Some l; _ } -> l | _ -> []
    in
    if List.exists (fun w -> w < 1) (s.workers :: fleet_workers) then
      invalid_arg "scenario: workers must be >= 1";
    (match s.window_ns with
    | Some w when w <= 0 -> invalid_arg "scenario: window must be positive"
    | _ -> ());
    (match s.quantum with
    | Fixed q when q <= 0 -> invalid_arg "scenario: quantum must be positive"
    | _ -> ());
    if s.duration_ns <= 0 then invalid_arg "scenario: dur must be positive";
    if s.warmup_ns < 0 || s.warmup_ns >= s.duration_ns then
      invalid_arg "scenario: warmup must lie in [0, dur)";
    (match s.system with
    | Lp | Lp_nouintr ->
      Option.iter Guard.validate (guard_config s);
      if s.fleet <> None then Cluster.validate (cluster_config s)
      else ignore (server_config s)
    | sys ->
      baseline_reject s (system_name sys);
      (match sys with
      | Nopreempt -> ()
      | Go -> if s.quantum <> default.quantum then ignore (baseline_quantum s "go")
      | _ -> ignore (baseline_quantum s (system_name sys))));
    ignore (arrival_process s);
    ignore (source_sampler s)
  with
  | () -> Ok ()
  | exception Invalid_argument m -> Error m

let pp_outcome fmt = function
  | Server r -> Preemptible.Server.pp_result fmt r
  | Fleet r -> Cluster.pp_fleet fmt r.Cluster.fleet

(* ------------------------------------------------------------------ *)
(* Real-time (fiber_rt) lowering: the same spec, replayed on actual
   domains under wall time.  The schedule is pre-generated from the
   very samplers the simulator lowers to, so both backends draw from
   identical workload definitions; only the execution substrate (and
   hence the clock domain) differs.                                    *)
(* ------------------------------------------------------------------ *)

let rt_quantum s =
  match s.quantum with
  | No_preempt -> None
  | Fixed q -> Some q
  | Adaptive _ ->
    invalid_arg
      "scenario: the rt backend has no adaptive quantum controller; set \
       quantum=T or quantum=none (e.g. -s quantum=20us)"

let rt_reject s =
  let no what cond =
    if cond then
      invalid_arg (Printf.sprintf "scenario: the rt backend does not support %s" what)
  in
  (match s.system with
  | Lp -> ()
  | sys ->
    invalid_arg
      (Printf.sprintf "scenario: the rt backend only runs sys=lp (got %s)"
         (system_name sys)));
  no "fleets (fleet={...})" (s.fleet <> None);
  no "the guard front door (guard={...})" (s.guard <> None);
  no "fault injection (faults=...)" (s.faults <> None);
  no "the watchdog" s.watchdog;
  no "disciplines (discipline=...)" (s.discipline <> None);
  no "cancellation (cancel=...)" (s.cancel_ns <> None);
  ignore (rt_quantum s)

let rt_max_requests = 2_000_000

let rt_schedule s =
  rt_reject s;
  let arrival = arrival_process s in
  let source = source_sampler s in
  let rng = Engine.Rng.create s.seed in
  let items = ref [] in
  let n = ref 0 in
  let now = ref 0 in
  (try
     while true do
       let gap = Workload.Arrival.next_gap arrival rng ~now:!now in
       now := !now + gap;
       if !now >= s.duration_ns then raise Exit;
       let service_ns, cls = Workload.Source.draw source rng ~now:!now in
       incr n;
       if !n > rt_max_requests then
         invalid_arg
           (Printf.sprintf
              "scenario: rt schedule exceeds %d requests; shorten dur or lower \
               the arrival rate"
              rt_max_requests);
       items :=
         {
           Fiber_rt.Sched.at_ns = !now;
           service_ns;
           lc = cls = Workload.Request.Latency_critical;
         }
         :: !items
     done
   with Exit -> ());
  Array.of_list (List.rev !items)

let run_rt s =
  let schedule = rt_schedule s in
  Fiber_rt.Sched.run ~workers:s.workers ?quantum_ns:(rt_quantum s)
    ~warmup_ns:s.warmup_ns schedule

let validate_rt s =
  match
    rt_reject s;
    ignore (arrival_process s);
    ignore (source_sampler s)
  with
  | () -> Ok ()
  | exception Invalid_argument m -> Error m
