type snapshot = {
  window_start_ns : int;
  window_ns : int;
  arrivals : int;
  completions : int;
  arrival_rate_per_s : float;
  median_ns : float;
  p99_ns : float;
  service_median_ns : float;
  service_p99_ns : float;
  max_qlen : int;
}

type t = {
  win : int;
  mutable start : int;
  mutable arrivals : int;
  mutable completions : int;
  mutable median_est : Stat.Quantile.P2.t;
  mutable p99_est : Stat.Quantile.P2.t;
  mutable svc_median_est : Stat.Quantile.P2.t;
  mutable svc_p99_est : Stat.Quantile.P2.t;
  mutable max_qlen : int;
}

let create ~window_ns =
  if window_ns <= 0 then invalid_arg "Stats_window.create: window must be positive";
  {
    win = window_ns;
    start = 0;
    arrivals = 0;
    completions = 0;
    median_est = Stat.Quantile.P2.create 0.5;
    p99_est = Stat.Quantile.P2.create 0.99;
    svc_median_est = Stat.Quantile.P2.create 0.5;
    svc_p99_est = Stat.Quantile.P2.create 0.99;
    max_qlen = 0;
  }

let window_ns t = t.win

let note_arrival t ~now =
  ignore now;
  t.arrivals <- t.arrivals + 1

let note_completion t ~now ~latency_ns ~service_ns =
  ignore now;
  t.completions <- t.completions + 1;
  Stat.Quantile.P2.add_int t.median_est latency_ns;
  Stat.Quantile.P2.add_int t.p99_est latency_ns;
  Stat.Quantile.P2.add_int t.svc_median_est service_ns;
  Stat.Quantile.P2.add_int t.svc_p99_est service_ns

let note_qlen t n = if n > t.max_qlen then t.max_qlen <- n

let ready t ~now = now - t.start >= t.win

let roll t ~now =
  let elapsed = max (now - t.start) 1 in
  let snapshot =
    {
      window_start_ns = t.start;
      window_ns = elapsed;
      arrivals = t.arrivals;
      completions = t.completions;
      arrival_rate_per_s = float_of_int t.arrivals *. 1e9 /. float_of_int elapsed;
      median_ns =
        (if t.completions = 0 then 0.0 else Stat.Quantile.P2.get t.median_est);
      p99_ns = (if t.completions = 0 then 0.0 else Stat.Quantile.P2.get t.p99_est);
      service_median_ns =
        (if t.completions = 0 then 0.0 else Stat.Quantile.P2.get t.svc_median_est);
      service_p99_ns =
        (if t.completions = 0 then 0.0 else Stat.Quantile.P2.get t.svc_p99_est);
      max_qlen = t.max_qlen;
    }
  in
  t.start <- now;
  t.arrivals <- 0;
  t.completions <- 0;
  t.median_est <- Stat.Quantile.P2.create 0.5;
  t.p99_est <- Stat.Quantile.P2.create 0.99;
  t.svc_median_est <- Stat.Quantile.P2.create 0.5;
  t.svc_p99_est <- Stat.Quantile.P2.create 0.99;
  t.max_qlen <- 0;
  snapshot
