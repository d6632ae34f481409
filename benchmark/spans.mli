(** Spans around calls into the repository's layers, stamped with the
    monotonic {!Clock}, kept in an {!Obs.Trace} ring and exported through
    {!Obs.Export}.

    Spans are recorded from the benchmark's own code, never from inside
    a layer.  The ring is shared by the domains of a run (sweep workers,
    fiber pool workers, the generator), so emission is serialised by a
    mutex.  A span's track is the sweep-task, request or job id it
    belongs to, so spans nest per track and a parent is the enclosing
    span on the same track. *)

type t

val create : capacity:int -> t

val span : t option -> Obs.Trace.cat -> string -> track:int -> (unit -> 'a) -> 'a
(** [span tr cat name ~track f] runs [f] inside a span named [name]
    (a static string).  With [tr = None] it is just [f ()]. *)

val instant : t -> Obs.Trace.cat -> string -> track:int -> arg:int -> unit
(** A point event on [track] carrying [arg]. *)

val dropped : t -> int
(** Events lost to ring wraparound. *)

val events : t -> int
(** Events recorded, including any later lost to wraparound. *)

type self = { count : int; total_ms : float; self_ms : float }

val self_times : t -> (string * self) list
(** Per span name: how many spans closed, their summed duration, and
    their self time (duration minus the time covered by child spans on
    the same track), sorted by name. *)

val export_perfetto : t -> path:string -> unit
