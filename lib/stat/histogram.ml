(* The running float state is an all-float record, which OCaml stores
   flat: [record] writes unboxed doubles, so it neither allocates nor
   hits the write barrier. *)
type seen = { mutable sum : float; mutable max_seen : float; mutable min_seen : float }

type t = {
  buckets_per_decade : int;
  max_value : float;
  counts : int array;
  mutable total : int;
  seen : seen;
}

let n_buckets ~buckets_per_decade ~max_value =
  let decades = log10 max_value in
  int_of_float (Float.ceil (decades *. float_of_int buckets_per_decade)) + 2

let create ?(buckets_per_decade = 90) ?(max_value = 1e10) () =
  if buckets_per_decade <= 0 then invalid_arg "Histogram.create: buckets_per_decade";
  if max_value <= 1.0 then invalid_arg "Histogram.create: max_value must exceed 1.0";
  {
    buckets_per_decade;
    max_value;
    counts = Array.make (n_buckets ~buckets_per_decade ~max_value) 0;
    total = 0;
    seen = { sum = 0.0; max_seen = 0.0; min_seen = infinity };
  }

let bucket_of t v =
  if v < 1.0 then 0
  else begin
    let idx = 1 + int_of_float (log10 v *. float_of_int t.buckets_per_decade) in
    min idx (Array.length t.counts - 1)
  end

(* Upper edge of bucket [i]: the value below which everything in the
   bucket falls. *)
let bucket_upper t i =
  if i = 0 then 1.0
  else 10.0 ** (float_of_int i /. float_of_int t.buckets_per_decade)

let record t v =
  let i = bucket_of t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  let s = t.seen in
  s.sum <- s.sum +. v;
  if v > s.max_seen then s.max_seen <- v;
  if v < s.min_seen then s.min_seen <- v

let count t = t.total

let quantile t q =
  if t.total = 0 then invalid_arg "Histogram.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q out of [0,1]";
  let target = int_of_float (Float.ceil (q *. float_of_int t.total)) in
  let target = max target 1 in
  let acc = ref 0 and result = ref t.seen.max_seen and found = ref false in
  (try
     for i = 0 to Array.length t.counts - 1 do
       acc := !acc + t.counts.(i);
       if !acc >= target then begin
         result := Float.min (bucket_upper t i) t.seen.max_seen;
         found := true;
         raise Exit
       end
     done
   with Exit -> ());
  ignore !found;
  !result

let mean t = if t.total = 0 then 0.0 else t.seen.sum /. float_of_int t.total
let max_recorded t = t.seen.max_seen
let min_recorded t = if t.total = 0 then 0.0 else t.seen.min_seen

let merge_into ~dst ~src =
  if
    dst.buckets_per_decade <> src.buckets_per_decade
    || dst.max_value <> src.max_value
  then invalid_arg "Histogram.merge_into: parameter mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  let d = dst.seen and s = src.seen in
  d.sum <- d.sum +. s.sum;
  if s.max_seen > d.max_seen then d.max_seen <- s.max_seen;
  if s.min_seen < d.min_seen then d.min_seen <- s.min_seen

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.seen.sum <- 0.0;
  t.seen.max_seen <- 0.0;
  t.seen.min_seen <- infinity
