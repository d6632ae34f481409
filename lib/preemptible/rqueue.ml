(* Growable ring buffer with parallel payload/timestamp arrays.

   The runtime pushes every request through two queues (dispatch, then
   a worker local queue), so queue traffic is ~2x request traffic —
   hot enough that the Stdlib [Queue]'s cons cell plus [(x, now)]
   tuple per push showed up in the allocation profile (DESIGN §9).
   The ring stores payloads and enqueue timestamps in two parallel
   arrays and allocates only on growth.

   The payload array is created lazily from the first pushed element
   (there is no dummy in the API); vacated slots keep their stale
   reference until overwritten, which is fine for the short-lived
   simulation objects queued here. *)

type 'a t = {
  qname : string;
  mutable vals : 'a array; (* [||] until the first push *)
  mutable enq : int array; (* enqueue timestamps, parallel to vals *)
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
  mutable hwm : int;
  mutable pushed : int;
  wait : Stat.Welford.t;
}

let create ~name =
  {
    qname = name;
    vals = [||];
    enq = [||];
    head = 0;
    len = 0;
    hwm = 0;
    pushed = 0;
    wait = Stat.Welford.create ();
  }

let name t = t.qname

let length t = t.len
let head_wait_ns t ~now = if t.len = 0 then 0 else now - t.enq.(t.head)
let is_empty t = t.len = 0
let max_length t = t.hwm
let total_pushed t = t.pushed
let mean_wait_ns t = Stat.Welford.mean t.wait

(* Physical index of logical position [i] (0 = oldest). *)
let[@inline] slot t i =
  let cap = Array.length t.vals in
  let j = t.head + i in
  if j >= cap then j - cap else j

let grow t x =
  let cap = Array.length t.vals in
  if cap = 0 then begin
    t.vals <- Array.make 16 x;
    t.enq <- Array.make 16 0
  end
  else begin
    let cap' = 2 * cap in
    let vals = Array.make cap' x in
    let enq = Array.make cap' 0 in
    for i = 0 to t.len - 1 do
      let j = slot t i in
      vals.(i) <- t.vals.(j);
      enq.(i) <- t.enq.(j)
    done;
    t.vals <- vals;
    t.enq <- enq;
    t.head <- 0
  end

let push t ~now x =
  if t.len = Array.length t.vals then grow t x;
  let j = slot t t.len in
  t.vals.(j) <- x;
  t.enq.(j) <- now;
  t.len <- t.len + 1;
  t.pushed <- t.pushed + 1;
  if t.len > t.hwm then t.hwm <- t.len

let pop t ~now =
  if t.len = 0 then None
  else begin
    let j = t.head in
    let x = t.vals.(j) in
    Stat.Welford.add_int t.wait (now - t.enq.(j));
    t.head <- (if j + 1 = Array.length t.vals then 0 else j + 1);
    t.len <- t.len - 1;
    Some x
  end

let peek t = if t.len = 0 then None else Some t.vals.(t.head)

(* Remove the element minimizing [key] (FIFO among ties: the earliest
   qualifying element wins).  O(n) — the discipline queues are short in
   practice.  Removal shifts the elements behind the victim forward one
   slot, preserving FIFO order of the remainder. *)
let pop_by t ~now ~key =
  if t.len = 0 then None
  else begin
    let best = ref 0 in
    let best_key = ref (key t.vals.(slot t 0)) in
    for i = 1 to t.len - 1 do
      let k = key t.vals.(slot t i) in
      if k < !best_key then begin
        best := i;
        best_key := k
      end
    done;
    let j = slot t !best in
    let x = t.vals.(j) in
    Stat.Welford.add_int t.wait (now - t.enq.(j));
    for i = !best downto 1 do
      let dst = slot t i and src = slot t (i - 1) in
      t.vals.(dst) <- t.vals.(src);
      t.enq.(dst) <- t.enq.(src)
    done;
    t.head <- (if t.head + 1 = Array.length t.vals then 0 else t.head + 1);
    t.len <- t.len - 1;
    Some x
  end
