(* In-memory span recorder for the traced run.

   A span is a named interval with an explicit parent (0 is the root
   span of the run, which every other span descends from).  Spans are
   only recorded when the recorder is enabled, so the untraced run pays
   one branch per call.  At the end the run derives self times (a span's
   duration minus its children's) and writes the spans twice: as a flat
   JSON list and as a Chrome trace_event file. *)

module Json = Jedd_server.Json

type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;  (** the layer: "jedd", "analyses", "relation", ... *)
  tid : int;
  start_us : float;
  dur_us : float;
}

type t = {
  enabled : bool;
  t0 : float;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let now_us () = Unix.gettimeofday () *. 1e6

let create ~enabled =
  { enabled; t0 = now_us (); lock = Mutex.create (); next = 1; spans = [] }

let root = 0

let add t ~parent ~cat ?(tid = 0) name ~start_us ~dur_us =
  if not t.enabled then -1
  else begin
    Mutex.lock t.lock;
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent; name; cat; tid; start_us; dur_us } :: t.spans;
    Mutex.unlock t.lock;
    id
  end

(* [with_span t ~parent ~cat name f] runs [f id] inside a span whose id
   [f] can hand to child spans; the id is taken before [f] runs. *)
let with_span t ~parent ~cat name f =
  if not t.enabled then f (-1)
  else begin
    Mutex.lock t.lock;
    let id = t.next in
    t.next <- id + 1;
    Mutex.unlock t.lock;
    let start_us = now_us () in
    let close () =
      let s = { id; parent; name; cat; tid = 0; start_us; dur_us = now_us () -. start_us } in
      Mutex.lock t.lock;
      t.spans <- s :: t.spans;
      Mutex.unlock t.lock
    in
    Fun.protect ~finally:close (fun () -> f id)
  end

let spans t = List.rev t.spans

let total_ms t ~cat ~name =
  List.fold_left
    (fun a s -> if s.cat = cat && s.name = name then a +. (s.dur_us /. 1000.) else a)
    0. t.spans

(* Self time of every span, by id: its duration minus the part of it
   that its children cover.  Children of one span may overlap (the
   client threads of a load phase), so their intervals are merged
   before they are subtracted. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let l = Option.value (Hashtbl.find_opt children s.parent) ~default:[] in
      Hashtbl.replace children s.parent ((s.start_us, s.start_us +. s.dur_us) :: l))
    t.spans;
  let covered = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun parent ivs ->
      let total, last =
        List.fold_left
          (fun (total, (lo, hi)) (a, b) ->
            if a > hi then (total +. (hi -. lo), (a, b)) else (total, (lo, Float.max hi b)))
          (0., (0., 0.))
          (List.sort compare ivs)
      in
      Hashtbl.replace covered parent (total +. (snd last -. fst last)))
    children;
  fun s -> s.dur_us -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.

let self_ms t ~cat ~name =
  let self = self_times t in
  List.fold_left
    (fun a s -> if s.cat = cat && s.name = name then a +. (self s /. 1000.) else a)
    0. t.spans

(* The root span covers the whole run; call once, at the end. *)
let finish t =
  if t.enabled then
    t.spans <-
      {
        id = root;
        parent = -1;
        name = "run";
        cat = "perfbench";
        tid = 0;
        start_us = t.t0;
        dur_us = now_us () -. t.t0;
      }
      :: t.spans

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* [base].spans.json: the spans with self times, as a JSON list.
   [base].trace.json: Chrome trace_event format (complete "X" events,
   microsecond timestamps relative to the start of the run). *)
let write t ~base =
  let self = self_times t in
  let fl x = Json.Float (Float.round (x *. 10.) /. 10.) in
  let ss = spans t in
  let spans_json =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [
               ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("name", Json.String s.name);
               ("cat", Json.String s.cat);
               ("tid", Json.Int s.tid);
               ("ts_us", fl (s.start_us -. t.t0));
               ("dur_us", fl s.dur_us);
               ("self_us", fl (self s));
             ])
         ss)
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String s.cat);
            ("ph", Json.String "X");
            ("ts", fl (s.start_us -. t.t0));
            ("dur", fl s.dur_us);
            ("pid", Json.Int 1);
            ("tid", Json.Int s.tid);
            ( "args",
              Json.Obj
                [
                  ("id", Json.Int s.id);
                  ("parent", Json.Int s.parent);
                  ("self_us", fl (self s));
                ] );
          ])
      ss
  in
  write_file (base ^ ".spans.json") (Json.to_string spans_json);
  write_file (base ^ ".trace.json")
    (Json.to_string
       (Json.Obj
          [
            ("traceEvents", Json.List events);
            ("displayTimeUnit", Json.String "ms");
          ]))
