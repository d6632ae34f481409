(* Indexed 4-ary min-heap of int ids keyed on (time, seq).

   Keys and ids live in three parallel [int array]s by heap position,
   and [pos] maps an id back to its position (-1 when absent).  Every
   move writes ints only, so neither insertion, extraction nor removal
   allocates or pays the write barrier, and [remove] can take an entry
   out from the middle: a cancelled event leaves the heap at once
   instead of sitting there until its due time.  A 4-ary layout halves
   the tree depth of a binary heap and keeps each sift-down's child
   probe within one or two cache lines of the parent (DESIGN §9).

   Internals use unsafe array access: every position is bounded by
   [len], which never exceeds the capacity of the three equal-length
   key arrays, and every id stored in [ids] is below the length of
   [pos] (checked in [add]).  The public accessors keep their bounds
   and emptiness checks.

   Entries with equal [time] pop in ascending [seq] order; the engine
   feeds a strictly increasing sequence number, which is what makes
   same-timestamp events fire in scheduling order. *)

type t = {
  mutable times : int array; (* by position *)
  mutable seqs : int array; (* by position *)
  mutable ids : int array; (* by position *)
  mutable pos : int array; (* by id: position, or -1 when absent *)
  mutable len : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    ids = Array.make capacity 0;
    pos = Array.make capacity (-1);
    len = 0;
  }

let size t = t.len
let is_empty t = t.len = 0
let mem t id = id >= 0 && id < Array.length t.pos && Array.unsafe_get t.pos id >= 0

let grow t =
  let cap' = 2 * Array.length t.times in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.ids <- extend t.ids

let grow_pos t id =
  let pos = Array.make (max (2 * Array.length t.pos) (id + 1)) (-1) in
  Array.blit t.pos 0 pos 0 (Array.length t.pos);
  t.pos <- pos

(* Bubble the hole at [i] up while the entry (time, seq, id) beats the
   parent, then write the entry into the final hole. *)
let sift_up t i ~time ~seq id =
  let times = t.times and seqs = t.seqs and ids = t.ids and pos = t.pos in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = Array.unsafe_get times parent in
    if pt > time || (pt = time && Array.unsafe_get seqs parent > seq) then begin
      let pid = Array.unsafe_get ids parent in
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set ids !i pid;
      Array.unsafe_set pos pid !i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set ids !i id;
  Array.unsafe_set pos id !i

(* Sink the hole at [i] while the smallest of its up to four children
   beats the entry (time, seq, id), then write the entry there.  Only
   the winning child is compared against the entry. *)
let sift_down t i ~time ~seq id =
  let times = t.times and seqs = t.seqs and ids = t.ids and pos = t.pos in
  let len = t.len in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= len then continue := false
    else begin
      let last = if first + 3 < len then first + 3 else len - 1 in
      let best = ref first in
      let bt = ref (Array.unsafe_get times first) in
      let bs = ref (Array.unsafe_get seqs first) in
      for c = first + 1 to last do
        let ct = Array.unsafe_get times c in
        if ct < !bt || (ct = !bt && Array.unsafe_get seqs c < !bs) then begin
          best := c;
          bt := ct;
          bs := Array.unsafe_get seqs c
        end
      done;
      if !bt < time || (!bt = time && !bs < seq) then begin
        let bid = Array.unsafe_get ids !best in
        Array.unsafe_set times !i !bt;
        Array.unsafe_set seqs !i !bs;
        Array.unsafe_set ids !i bid;
        Array.unsafe_set pos bid !i;
        i := !best
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set ids !i id;
  Array.unsafe_set pos id !i

let add t ~time ~seq id =
  if id < 0 then invalid_arg "Event_heap.add: negative id";
  if id >= Array.length t.pos then grow_pos t id
  else if t.pos.(id) >= 0 then invalid_arg "Event_heap.add: id already in the heap";
  if t.len = Array.length t.times then grow t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i ~time ~seq id

(* Fill the hole at [p] with the last entry, which may belong above
   or below it. *)
let remove t id =
  if not (mem t id) then invalid_arg "Event_heap.remove: id not in the heap";
  let p = t.pos.(id) in
  t.pos.(id) <- -1;
  let last = t.len - 1 in
  t.len <- last;
  if p < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) and lid = t.ids.(last) in
    let parent = (p - 1) / 4 in
    if p > 0 && (t.times.(parent) > time || (t.times.(parent) = time && t.seqs.(parent) > seq))
    then sift_up t p ~time ~seq lid
    else sift_down t p ~time ~seq lid
  end

let time_of t id =
  if not (mem t id) then invalid_arg "Event_heap.time_of: id not in the heap";
  t.times.(t.pos.(id))

(* Zero-alloc accessors: undefined on an empty heap (asserted). *)

let min_time t =
  assert (t.len > 0);
  t.times.(0)

let min_id t =
  assert (t.len > 0);
  t.ids.(0)

let drop_min t =
  assert (t.len > 0);
  t.pos.(t.ids.(0)) <- -1;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t 0 ~time:t.times.(last) ~seq:t.seqs.(last) t.ids.(last)

(* Allocating conveniences, kept for tests and oracles. *)

let peek t = if t.len = 0 then None else Some (t.times.(0), t.seqs.(0), t.ids.(0))

let pop t =
  let r = peek t in
  if r <> None then drop_min t;
  r

let clear t =
  for i = 0 to t.len - 1 do
    t.pos.(t.ids.(i)) <- -1
  done;
  t.len <- 0
