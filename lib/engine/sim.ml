(* Deterministic discrete-event loop.

   Hot-path discipline (DESIGN §9): scheduling an event must not
   allocate, and moving it through the queue must not write a pointer.
   Event records live in a slab indexed by a small int id.  A record is
   taken with a free id in [at], its id sits in the int-only
   [Event_heap] while queued, and the id goes back to the free list the
   moment the event fires or is cancelled — so the heap holds no dead
   entries.  The only pointer store left per event is the callback
   written into the record's [efn]; the only allocation is whatever
   closure the *caller* passes in, and the runtime components
   preallocate theirs. *)

let noop () = ()

type event = {
  id : int; (* slot in [owner.slab], key of [owner.heap] *)
  owner : t; (* so [cancel] needs no [t] *)
  mutable efn : unit -> unit;
      (* kept after the event fires until the id is reused: clearing it
         would be a second write barrier per event *)
}

and t = {
  mutable clock : int;
  mutable seq : int;
  heap : Event_heap.t;
  root_rng : Rng.t;
  mutable n_fired : int;
  mutable slab : event array; (* by id; [||] until the first schedule *)
  mutable free : int array; (* LIFO stack of free ids *)
  mutable n_free : int;
  mutable n_ids : int; (* ids handed out so far: slab.(0 .. n_ids-1) *)
}

let create ?(seed = 42L) () =
  {
    clock = 0;
    seq = 0;
    heap = Event_heap.create ();
    root_rng = Rng.create seed;
    n_fired = 0;
    slab = [||];
    free = [||];
    n_free = 0;
    n_ids = 0;
  }

(* Shared never-pending handle: lets components keep a plain [event]
   field (no [option], so arming allocates nothing) with [null] as the
   rest state.  Its owner is a sim nothing is ever scheduled on, so
   [cancel] and [is_pending] see an id that is not in its heap. *)
let null = { id = 0; owner = create (); efn = noop }

let now t = t.clock
let rng t = t.root_rng
let fork_rng t = Rng.split t.root_rng

(* -- the slab ------------------------------------------------------ *)

(* A new record (and id) once every free id is in use. *)
let fresh t =
  let id = t.n_ids in
  let ev = { id; owner = t; efn = noop } in
  if id = Array.length t.slab then begin
    let cap = max 64 (2 * id) in
    let slab = Array.make cap ev in
    Array.blit t.slab 0 slab 0 id;
    t.slab <- slab
  end
  else t.slab.(id) <- ev;
  t.n_ids <- id + 1;
  ev

let[@inline] acquire t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    Array.unsafe_get t.slab (Array.unsafe_get t.free t.n_free)
  end
  else fresh t

(* The stack grows only as deep as ids are ever free at once, which is
   small in steady state.  Sizing it like [slab] would put its hot top
   word at the start of one more large page-aligned array, where it
   aliases the heap's hot first entries: on a 2-vCPU x86 VM the
   65,536-event heap probe ran 2x slower that way. *)
let grow_free t =
  let free = Array.make (max 64 (2 * t.n_free)) 0 in
  Array.blit t.free 0 free 0 t.n_free;
  t.free <- free

let[@inline] release t id =
  if t.n_free = Array.length t.free then grow_free t;
  Array.unsafe_set t.free t.n_free id;
  t.n_free <- t.n_free + 1

(* -- scheduling ---------------------------------------------------- *)

let at t time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %d is in the past (now %d)" time t.clock);
  let ev = acquire t in
  ev.efn <- fn;
  t.seq <- t.seq + 1;
  Event_heap.add t.heap ~time ~seq:t.seq ev.id;
  ev

let after t d fn =
  if d < 0 then invalid_arg "Sim.after: negative delay";
  at t (t.clock + d) fn

let cancel ev =
  let t = ev.owner in
  if Event_heap.mem t.heap ev.id then begin
    Event_heap.remove t.heap ev.id;
    release t ev.id
  end

let is_pending ev = Event_heap.mem ev.owner.heap ev.id
let time_of ev = Event_heap.time_of ev.owner.heap ev.id

let live_events t = Event_heap.size t.heap
let events_fired t = t.n_fired

(* -- the loop ------------------------------------------------------ *)

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    let id = Event_heap.min_id t.heap in
    t.clock <- Event_heap.min_time t.heap;
    Event_heap.drop_min t.heap;
    t.n_fired <- t.n_fired + 1;
    (* Free the id before running: the callback may schedule, and the
       record is free to serve that schedule.  Handles are dead the
       moment their event fires (see the .mli contract). *)
    release t id;
    let fn = (Array.unsafe_get t.slab id).efn in
    fn ();
    true
  end

let run ?max_events t =
  match max_events with
  | None -> while step t do () done
  | Some n ->
    let fired = ref 0 in
    while !fired < n && step t do
      incr fired
    done

let run_until t limit =
  while (not (Event_heap.is_empty t.heap)) && Event_heap.min_time t.heap <= limit do
    ignore (step t : bool)
  done;
  if t.clock < limit then t.clock <- limit
