(* The float state is an all-float record, which OCaml stores flat:
   [add] writes unboxed doubles, so it neither allocates nor hits the
   write barrier. *)
type moments = {
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = { mutable n : int; m : moments }

let create () =
  { n = 0; m = { mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity } }

let[@inline] add t x =
  let m = t.m in
  t.n <- t.n + 1;
  let delta = x -. m.mean in
  m.mean <- m.mean +. (delta /. float_of_int t.n);
  m.m2 <- m.m2 +. (delta *. (x -. m.mean));
  if x < m.min_v then m.min_v <- x;
  if x > m.max_v then m.max_v <- x

let add_int t n = add t (float_of_int n)
let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.m.mean
let variance t = if t.n < 2 then 0.0 else t.m.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = t.m.min_v
let max_value t = t.m.max_v
let copy t = { n = t.n; m = { t.m with mean = t.m.mean } }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let n = a.n + b.n in
    let delta = b.m.mean -. a.m.mean in
    let mean = a.m.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m.m2 +. b.m.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    {
      n;
      m =
        { mean; m2; min_v = Float.min a.m.min_v b.m.min_v; max_v = Float.max a.m.max_v b.m.max_v };
    }
  end

let merge_into ~dst ~src =
  let r = merge dst src in
  dst.n <- r.n;
  dst.m.mean <- r.m.mean;
  dst.m.m2 <- r.m.m2;
  dst.m.min_v <- r.m.min_v;
  dst.m.max_v <- r.m.max_v
