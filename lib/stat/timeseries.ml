type bucket = { mutable count : int; mutable sum : float; mutable max : float }

type t = { window_ns : int; table : (int, bucket) Hashtbl.t }

type point = { t_start : int; count : int; mean : float; max : float; sum : float }

let create ~window_ns =
  if window_ns <= 0 then invalid_arg "Timeseries.create: window_ns must be positive";
  { window_ns; table = Hashtbl.create 64 }

let bucket_for t time =
  if time < 0 then invalid_arg "Timeseries.record: negative time";
  let key = time / t.window_ns in
  match Hashtbl.find_opt t.table key with
  | Some b -> b
  | None ->
    let b = { count = 0; sum = 0.0; max = neg_infinity } in
    Hashtbl.add t.table key b;
    b

let record t ~time v =
  let b = bucket_for t time in
  b.count <- b.count + 1;
  b.sum <- b.sum +. v;
  if v > b.max then b.max <- v

let mark t ~time = record t ~time 0.0

let points t =
  Hashtbl.fold
    (fun key (b : bucket) acc ->
      {
        t_start = key * t.window_ns;
        count = b.count;
        mean = (if b.count = 0 then 0.0 else b.sum /. float_of_int b.count);
        max = b.max;
        sum = b.sum;
      }
      :: acc)
    t.table []
  |> List.sort (fun a b -> compare a.t_start b.t_start)

let rate_per_sec p ~window_ns = float_of_int p.count *. 1e9 /. float_of_int window_ns
