type t = { ring : Obs.Trace.t; lock : Mutex.t }

let create ~capacity =
  let t0 = Clock.now_ns () in
  let ring =
    Obs.Trace.create
      ~config:{ Obs.Trace.capacity; categories = Obs.Trace.all_cats }
      ~clock:(fun () -> Clock.now_ns () - t0)
      ()
  in
  { ring; lock = Mutex.create () }

let span_begin t cat name ~track =
  Mutex.protect t.lock (fun () -> Obs.Trace.span_begin t.ring cat ~name ~track ~arg:0)

let span_end t cat name ~track =
  Mutex.protect t.lock (fun () -> Obs.Trace.span_end t.ring cat ~name ~track)

let instant t cat name ~track ~arg =
  Mutex.protect t.lock (fun () -> Obs.Trace.instant t.ring cat ~name ~track ~arg)

let span tr cat name ~track f =
  match tr with
  | None -> f ()
  | Some t ->
    span_begin t cat name ~track;
    Fun.protect ~finally:(fun () -> span_end t cat name ~track) f

let dropped t = Obs.Trace.dropped t.ring
let events t = Obs.Trace.recorded t.ring

type self = { count : int; total_ms : float; self_ms : float }

(* One open span on a track: its start and the time its children cover. *)
type frame = { name : string; start : int; mutable child_ns : int }

let self_times t =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 64 in
  let acc : (string, int * int * int) Hashtbl.t = Hashtbl.create 32 in
  Obs.Trace.iter t.ring (fun ev ->
      let stack = Option.value (Hashtbl.find_opt stacks ev.Obs.Trace.track) ~default:[] in
      match ev.Obs.Trace.kind, stack with
      | Obs.Trace.Span_begin, _ ->
        let f = { name = ev.name; start = ev.ts; child_ns = 0 } in
        Hashtbl.replace stacks ev.track (f :: stack)
      | Obs.Trace.Span_end, f :: rest ->
        let dur = ev.ts - f.start in
        (match rest with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
        Hashtbl.replace stacks ev.track rest;
        let n, total, self = Option.value (Hashtbl.find_opt acc f.name) ~default:(0, 0, 0) in
        Hashtbl.replace acc f.name (n + 1, total + dur, self + dur - f.child_ns)
      | _ -> ());
  Hashtbl.fold
    (fun name (count, total, self) l ->
      let ms ns = float_of_int ns /. 1e6 in
      (name, { count; total_ms = ms total; self_ms = ms self })
      :: l)
    acc []
  |> List.sort compare

let export_perfetto t ~path = Obs.Export.perfetto_to_file t.ring ~path
