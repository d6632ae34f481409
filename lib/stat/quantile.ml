let exact samples q =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quantile.exact: empty sample set";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.exact: q out of [0,1]";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median samples = exact samples 0.5
let percentile samples p = exact samples (p /. 100.0)

module P2 = struct
  (* Jain & Chlamtac's P-squared algorithm: five markers whose heights
     approximate the quantile without storing samples. *)
  type t = {
    q : float;
    heights : float array; (* 5 marker heights *)
    positions : float array; (* 5 marker positions, 1-based *)
    desired : float array;
    increments : float array;
    mutable n : int;
    init : float array; (* first five observations *)
  }

  let create q =
    if q <= 0.0 || q >= 1.0 then invalid_arg "Quantile.P2.create: q out of (0,1)";
    {
      q;
      heights = Array.make 5 0.0;
      positions = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      desired = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
      increments = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
      n = 0;
      init = Array.make 5 0.0;
    }

  let count t = t.n

  (* [parabolic], [linear] and [add] are inlined, so their float
     results and [add_int]'s sample stay unboxed: an update allocates
     nothing. *)
  let[@inline] parabolic t i d =
    let qi = t.heights.(i)
    and qim = t.heights.(i - 1)
    and qip = t.heights.(i + 1) in
    let ni = t.positions.(i)
    and nim = t.positions.(i - 1)
    and nip = t.positions.(i + 1) in
    qi
    +. d
       /. (nip -. nim)
       *. (((ni -. nim +. d) *. (qip -. qi) /. (nip -. ni))
          +. ((nip -. ni -. d) *. (qi -. qim) /. (ni -. nim)))

  let[@inline] linear t i d =
    let j = i + int_of_float d in
    t.heights.(i)
    +. d
       *. (t.heights.(j) -. t.heights.(i))
       /. (t.positions.(j) -. t.positions.(i))

  let seed_markers t =
    Array.sort compare t.init;
    Array.blit t.init 0 t.heights 0 5

  let[@inline] add t x =
    if t.n < 5 then begin
      t.init.(t.n) <- x;
      t.n <- t.n + 1;
      if t.n = 5 then seed_markers t
    end
    else begin
      t.n <- t.n + 1;
      (* Find the cell containing x and bump marker positions. *)
      let k =
        if x < t.heights.(0) then begin
          t.heights.(0) <- x;
          0
        end
        else if x >= t.heights.(4) then begin
          t.heights.(4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 0 to 3 do
            if t.heights.(i) <= x && x < t.heights.(i + 1) then k := i
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        t.positions.(i) <- t.positions.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.desired.(i) <- t.desired.(i) +. t.increments.(i)
      done;
      for i = 1 to 3 do
        let d = t.desired.(i) -. t.positions.(i) in
        if
          (d >= 1.0 && t.positions.(i + 1) -. t.positions.(i) > 1.0)
          || (d <= -1.0 && t.positions.(i - 1) -. t.positions.(i) < -1.0)
        then begin
          let d = if d >= 0.0 then 1.0 else -1.0 in
          let candidate = parabolic t i d in
          let candidate =
            if t.heights.(i - 1) < candidate && candidate < t.heights.(i + 1)
            then candidate
            else linear t i d
          in
          t.heights.(i) <- candidate;
          t.positions.(i) <- t.positions.(i) +. d
        end
      done
    end

  let add_int t n = add t (float_of_int n)

  let get t =
    if t.n = 0 then invalid_arg "Quantile.P2.get: no data";
    if t.n < 5 then exact (Array.sub t.init 0 t.n) t.q else t.heights.(2)
end
