(* The multiplexing front end of jeddd-serve: one event-loop thread
   running select() over nonblocking sockets — a Unix-socket listener,
   a TCP listener and an HTTP listener, any subset enabled — feeding
   the worker pool (Pool) and flushing responses back in request order
   per connection.

   Flow of one request: the loop reads bytes into the connection's
   buffer, peels off a complete request (newline-framed JSON on
   Unix/TCP, Content-Length-framed HTTP on the HTTP port), allocates an
   ordered response slot, and submits the job.  A worker evaluates it
   through the shared Qeval (result cache + latency histograms) and
   pushes the outcome onto the completion queue, waking the loop
   through a self-pipe.  The loop renders the response into the slot
   and writes out the longest filled prefix of each connection's slot
   queue — so pipelined clients always see answers in send order.
   Deadlines are enforced by the loop itself: an overdue slot is
   answered with a timeout error and its job is flagged cancelled, so
   a worker that picks it up (or finishes it late) drops the result.

   Input and output live in offset buffers (Iobuf), so a pipelined
   burst costs time linear in its bytes.  A connection with
   [max_pending] unanswered requests is not read until some are
   answered: the peer's socket buffer fills and throttles it, instead
   of its burst queueing ahead of every other client.

   select() cannot watch descriptors at or above FD_SETSIZE (1024 on
   Linux); a connection accepted on one is answered with an overload
   error and closed.  When the process runs out of descriptors the
   listeners are parked until a connection closes, so the loop does not
   spin on a listener it cannot accept from. *)

(* Live updates: when created with a [live_config], the front end also
   accepts the "update" verb.  Edits are applied to the mutable shadow
   universe (Jedd_analyses.Live) on a dedicated updater thread, the
   re-solved universe is serialized and reloaded as a fresh frozen
   generation, a new worker pool is attached to it, and the generation
   pointer is swapped atomically — in-flight queries finish against the
   old generation, which is retired once its pool reaches quiescence
   ([Pool.stop] drains and joins).  The result cache is shared across
   generations (keys embed the universe hash) and the retired hash's
   entries are evicted at swap.  With a store configured, each new
   generation is published under its CAS ref — as a differential
   snapshot against the previous generation when that is smaller. *)

module Json = Jedd_server.Json
module Protocol = Jedd_server.Protocol
module Qeval = Jedd_server.Qeval
module Rescache = Jedd_server.Rescache
module Snapshot = Jedd_store.Snapshot
module Cas = Jedd_store.Cas
module Delta = Jedd_store.Delta
module Live = Jedd_analyses.Live
module Suite = Jedd_analyses.Suite
module Edit = Jedd_incr.Edit
module U = Jedd_relation.Universe

type config = {
  unix_path : string option;
  tcp : (string * int) option; (* bind address, port *)
  http : (string * int) option;
  workers : int;
  default_timeout_ms : int;
  cache_capacity : int;
  sweep_threshold : int;
}

let default_config =
  {
    unix_path = None;
    tcp = None;
    http = None;
    workers = 1;
    default_timeout_ms = 30_000;
    cache_capacity = 4096;
    (* Query scratch is swept once this many nodes pile up.  At 1 lsl 20
       a busy read-only daemon (perfbench serve, javac snapshot) doubled
       its node table four times in 30 s, its heap grew from 13 to 73 MB
       and its throughput fell by a third as the table outgrew the
       caches.  At 1 lsl 16 the table and heap stay flat; the sweeps,
       about one a second there at 3.5 ms each, stand in for 40-140 ms
       table doublings. *)
    sweep_threshold = 1 lsl 16;
  }

type slot = {
  mutable out : string option; (* rendered bytes, ready to flush *)
  deadline : float;
  seq : int; (* orders slots with equal deadlines in [Due] *)
  cancelled : bool Atomic.t;
  render : Json.t -> string;
  close_conn : bool; (* close after flushing this response *)
}

(* The unanswered slots by deadline, so each loop pass looks only at
   the slots that are due rather than at every pending one. *)
module Due = Set.Make (struct
  type t = slot

  let compare a b =
    match Float.compare a.deadline b.deadline with
    | 0 -> Int.compare a.seq b.seq
    | c -> c
end)

(* A byte buffer consumed from the front: [buf.[pos .. len)] is live.
   Appending slides or grows it only when the dead prefix is at least
   half of it, so every byte is copied O(1) times amortised. *)
module Iobuf = struct
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; pos = 0; len = 0 }
  let length b = b.len - b.pos

  (* Room for [n] more bytes after [len]. *)
  let reserve b n =
    let cap = Bytes.length b.buf in
    if b.len + n > cap then begin
      let live = length b in
      let dst =
        if live + n <= cap / 2 then b.buf
        else Bytes.create (max (2 * cap) (live + n))
      in
      Bytes.blit b.buf b.pos dst 0 live;
      b.buf <- dst;
      b.pos <- 0;
      b.len <- live
    end

  let add_sub b src off n =
    reserve b n;
    Bytes.blit src off b.buf b.len n;
    b.len <- b.len + n

  let add_string b s =
    add_sub b (Bytes.unsafe_of_string s) 0 (String.length s)

  let consume b n =
    b.pos <- b.pos + n;
    if b.pos = b.len then begin
      b.pos <- 0;
      b.len <- 0
    end

  let clear b = consume b (length b)

  (* First [c] at or after absolute offset [from], within the live bytes. *)
  let index_from b from c =
    let rec go i =
      if i >= b.len then None
      else if Bytes.unsafe_get b.buf i = c then Some i
      else go (i + 1)
    in
    go from
end

type kind = Line | Http_conn

type conn = {
  fd : Unix.file_descr;
  kind : kind;
  input : Iobuf.t; (* bytes read, not yet framed *)
  mutable scanned : int; (* input bytes known to hold no newline *)
  output : Iobuf.t; (* rendered responses not yet written *)
  slots : slot Queue.t; (* responses in request order *)
  mutable eof : bool; (* the peer sent its last byte, or reading failed *)
  mutable closing : bool; (* no more framing; close once output drains *)
  mutable blocked : bool; (* the last write found the socket full *)
}

type stats = {
  mutable connections : int;
  mutable timeouts : int;
  mutable parse_errors : int;
}

(* One serving generation: a (usually frozen) snapshot universe, its
   evaluator, and the worker pool bound to it.  [hash] is the hex MD5
   of the snapshot bytes — the cache-key component. *)
type generation = {
  snap : Snapshot.t;
  hash : string;
  qeval : Qeval.t;
  gpool : Pool.t;
  gen_no : int;
}

type live_config = {
  session : Live.t;
  initial_bytes : string;  (** generation 0's full snapshot bytes *)
  publish : (Cas.t * string) option;  (** store + ref for new generations *)
}

type live_state = {
  session : Live.t;
  publish : (Cas.t * string) option;
  mutable last_bytes : string;  (* previous generation's snapshot bytes *)
  updates : (Json.t * (Protocol.outcome -> unit)) Queue.t;
  um : Mutex.t;
  uc : Condition.t;
  mutable ustop : bool;
  mutable uthread : Thread.t option;
}

type t = {
  config : config;
  mutable gen : generation;  (* swapped whole by the updater thread *)
  cache : Rescache.t option;  (* shared across generations *)
  live : live_state option;
  listeners : (Unix.file_descr * kind) list;
  tcp_fd : Unix.file_descr option;
  http_fd : Unix.file_descr option;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  completions : (slot * Json.t * bool) Queue.t; (* quit? *)
  cm : Mutex.t; (* guards [completions], [woken] and [pipe_closed] *)
  mutable woken : bool; (* a wakeup byte is in the pipe *)
  mutable pipe_closed : bool;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable due : Due.t;
  mutable next_seq : int;
  mutable accept_resume : float; (* listeners parked until then *)
  rbuf : Bytes.t; (* read scratch *)
  mutable stopping : bool;
  stats : stats;
  started : float;
}

let max_line_buffer = 16 * 1024 * 1024

(* Unanswered requests a connection may have before it is not read. *)
let max_pending = 256
let read_chunk = 65536

(* How long listeners stay parked after running out of descriptors if
   no connection closes first (descriptors may free up elsewhere). *)
let accept_backoff_s = 0.25

(* How long a stopping loop keeps flushing answers to peers; one that
   never reads must not hold [run], and whoever joins it, forever. *)
let stop_grace_s = 5.

(* -- listeners ----------------------------------------------------------- *)

let listen_unix path =
  (if Sys.file_exists path then try Unix.unlink path with _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let listen_tcp host port =
  let addr =
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_PASSIVE ]
    with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> invalid_arg (Printf.sprintf "cannot resolve bind address %s" host)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> 0

(* -- construction -------------------------------------------------------- *)

let server_stats t () =
  let gen = t.gen in
  [
    ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
    ("generation", Json.Int gen.gen_no);
    ("requests", Json.Int (Pool.requests gen.gpool));
    ("errors", Json.Int (Pool.errors gen.gpool));
    ("timeouts", Json.Int t.stats.timeouts);
    ("parse_errors", Json.Int t.stats.parse_errors);
    ("connections", Json.Int t.stats.connections);
    ("queue_depth", Json.Int (Pool.queue_depth gen.gpool));
    ("active_connections", Json.Int (Hashtbl.length t.conns));
  ]
  @ Pool.stats_fields gen.gpool
  @ Qeval.stats_fields gen.qeval

let create ?(config = default_config) ?live ~universe_hash snap =
  if config.unix_path = None && config.tcp = None && config.http = None then
    invalid_arg "Serve.create: no listener configured";
  let stats_hook = ref (fun () -> []) in
  let world =
    { Protocol.snap; extra_stats = (fun () -> !stats_hook ()) }
  in
  let cache =
    if config.cache_capacity > 0 then
      Some (Rescache.create ~capacity:config.cache_capacity)
    else None
  in
  let qeval = Qeval.create ?cache ~universe_hash world in
  let pool =
    Pool.create ~workers:config.workers
      ~sweep_threshold:config.sweep_threshold qeval
  in
  let unix_fd = Option.map listen_unix config.unix_path in
  let tcp_fd = Option.map (fun (h, p) -> listen_tcp h p) config.tcp in
  let http_fd = Option.map (fun (h, p) -> listen_tcp h p) config.http in
  let listeners =
    List.concat
      [
        (match unix_fd with Some fd -> [ (fd, Line) ] | None -> []);
        (match tcp_fd with Some fd -> [ (fd, Line) ] | None -> []);
        (match http_fd with Some fd -> [ (fd, Http_conn) ] | None -> []);
      ]
  in
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  let live_state =
    Option.map
      (fun (lc : live_config) ->
        {
          session = lc.session;
          publish = lc.publish;
          last_bytes = lc.initial_bytes;
          updates = Queue.create ();
          um = Mutex.create ();
          uc = Condition.create ();
          ustop = false;
          uthread = None;
        })
      live
  in
  let t =
    {
      config;
      gen = { snap; hash = universe_hash; qeval; gpool = pool; gen_no = 0 };
      cache;
      live = live_state;
      listeners;
      tcp_fd;
      http_fd;
      wake_rd;
      wake_wr;
      completions = Queue.create ();
      cm = Mutex.create ();
      woken = false;
      pipe_closed = false;
      conns = Hashtbl.create 64;
      due = Due.empty;
      next_seq = 0;
      accept_resume = 0.;
      rbuf = Bytes.create read_chunk;
      stopping = false;
      stats = { connections = 0; timeouts = 0; parse_errors = 0 };
      started = Unix.gettimeofday ();
    }
  in
  stats_hook := (fun () -> server_stats t ());
  t

(* TCP/HTTP ports actually bound (useful with port 0 in tests). *)
let tcp_port t = Option.map bound_port t.tcp_fd
let http_port t = Option.map bound_port t.http_fd

(* Poke the loop through the self-pipe: one byte per drain of the
   completion queue is enough.  Once [run] has closed the pipe a late
   [stop] or straggling worker writes nothing, so it can never hit a
   descriptor number that has since been reused. *)
let wake_locked t =
  if not (t.woken || t.pipe_closed) then begin
    t.woken <- true;
    try ignore (Unix.write_substring t.wake_wr "x" 0 1)
    with Unix.Unix_error _ -> ()
  end

let wake t = Mutex.protect t.cm (fun () -> wake_locked t)

(* -- live updates -------------------------------------------------------- *)

let bad fmt = Format.kasprintf (fun s -> raise (Protocol.Bad_request s)) fmt

(* {"verb":"update", "edit":{"op":"add_assign","src":1,"dst":2}} *)
let edit_of_json request : Edit.t =
  let e =
    match Json.member "edit" request with
    | Some (Json.Obj _ as o) -> o
    | Some _ -> bad "\"edit\" must be an object"
    | None -> bad "missing \"edit\""
  in
  let int k =
    match Json.member k e with
    | Some (Json.Int v) -> v
    | Some _ -> bad "edit field %S must be an integer" k
    | None -> bad "edit is missing field %S" k
  in
  let opt_int k =
    match Json.member k e with
    | Some (Json.Int v) -> Some v
    | Some Json.Null | None -> None
    | Some _ -> bad "edit field %S must be an integer" k
  in
  let flag k default =
    match Json.member k e with
    | Some (Json.Bool b) -> b
    | None -> default
    | Some _ -> bad "edit field %S must be a boolean" k
  in
  match Json.member "op" e with
  | Some (Json.String op) -> (
    match op with
    | "add_class" -> Edit.Add_class { superclass = opt_int "superclass" }
    | "add_method" ->
      Edit.Add_method
        {
          cls = int "cls";
          signature = int "signature";
          n_vars = Option.value (opt_int "n_vars") ~default:2;
          entry = flag "entry" false;
        }
    | "add_field" -> Edit.Add_field
    | "add_alloc" -> Edit.Add_alloc { var = int "var"; cls = int "cls" }
    | "add_assign" -> Edit.Add_assign { src = int "src"; dst = int "dst" }
    | "add_store" ->
      Edit.Add_store { src = int "src"; base = int "base"; field = int "field" }
    | "add_load" ->
      Edit.Add_load { base = int "base"; field = int "field"; dst = int "dst" }
    | "add_callsite" ->
      Edit.Add_callsite
        { recv = int "recv"; signature = int "signature"; in_method = int "in_method" }
    | "remove_assign" -> Edit.Remove_assign { src = int "src"; dst = int "dst" }
    | "remove_store" ->
      Edit.Remove_store
        { src = int "src"; base = int "base"; field = int "field" }
    | "remove_load" ->
      Edit.Remove_load
        { base = int "base"; field = int "field"; dst = int "dst" }
    | "remove_callsite" -> Edit.Remove_callsite { callsite = int "callsite" }
    | "remove_method" -> Edit.Remove_method { meth = int "meth" }
    | "remove_class" -> Edit.Remove_class { cls = int "cls" }
    | op -> bad "unknown edit op %S" op)
  | Some _ -> bad "edit \"op\" must be a string"
  | None -> bad "edit is missing \"op\""

(* Publish the new generation's bytes under the configured CAS ref — as
   a delta against the previous generation when that is smaller. *)
let publish_generation ls ~gen_no ~edit bytes =
  match ls.publish with
  | None -> []
  | Some (cas, ref_name) ->
    (* the base must exist in the store for the chain to replay *)
    let base_hex = Cas.put cas ls.last_bytes in
    let d =
      Delta.diff
        ~meta:
          [
            ("jedd.generation", string_of_int gen_no);
            ("jedd.edit", Edit.describe edit);
          ]
        ~base:ls.last_bytes ~next:bytes ()
    in
    let dbytes = Delta.to_bytes d in
    let obj, kind =
      if String.length dbytes < String.length bytes then (dbytes, "delta")
      else (bytes, "snapshot")
    in
    let hex = Cas.put cas obj in
    Cas.tag cas ref_name hex;
    [
      ( "published",
        Json.Obj
          [
            ("ref", Json.String ref_name);
            ("object", Json.String hex);
            ("kind", Json.String kind);
            ("base", Json.String base_hex);
            ("bytes", Json.Int (String.length obj));
            ("changed_relations", Json.Int (List.length d.Delta.changed));
          ] );
    ]

(* Runs on the updater thread.  Applies the edit to the shadow
   universe, re-solves incrementally, loads the result as a fresh
   (frozen iff the current generation is) universe with its own worker
   pool, swaps the generation pointer, then retires the old pool at
   quiescence and evicts its cache entries. *)
let perform_update t ls request : Protocol.outcome =
  let id = Protocol.request_id request in
  try
    let t0 = Unix.gettimeofday () in
    let edit = edit_of_json request in
    let ustats = Live.update ls.session edit in
    let old = t.gen in
    let gen_no = old.gen_no + 1 in
    let snap_live =
      Suite.snapshot
        ~meta:
          [
            ("jedd.generation", string_of_int gen_no);
            ("jedd.edit", Edit.describe edit);
          ]
        (Live.inst ls.session)
    in
    let bytes = Snapshot.to_bytes snap_live in
    let hash = Digest.to_hex (Digest.string bytes) in
    let snap = Snapshot.of_bytes ~freeze:(U.frozen old.snap.Snapshot.u) bytes in
    let world =
      { Protocol.snap; extra_stats = (fun () -> server_stats t ()) }
    in
    let qeval =
      Qeval.create ?cache:t.cache ~universe_hash:hash world
    in
    let gpool =
      Pool.create ~workers:t.config.workers
        ~sweep_threshold:t.config.sweep_threshold qeval
    in
    let published = publish_generation ls ~gen_no ~edit bytes in
    ls.last_bytes <- bytes;
    (* the swap: new submissions route to the new pool from here on *)
    t.gen <- { snap; hash; qeval; gpool; gen_no };
    (* retire the old generation: drain its queue, join its workers,
       then drop the last references so the old universe can be
       collected, and flush its answers from the shared cache *)
    Pool.stop old.gpool;
    let evicted =
      match t.cache with
      | Some c -> Rescache.evict_suffix c ("#" ^ old.hash)
      | None -> 0
    in
    let millis = (Unix.gettimeofday () -. t0) *. 1000. in
    Protocol.Reply
      (Protocol.ok id
         ([
            ("updated", Json.Bool true);
            ("edit", Json.String (Edit.describe edit));
            ("mode", Json.String (Live.mode_to_string ustats.Live.mode));
            ("generation", Json.Int gen_no);
            ("universe_hash", Json.String hash);
            ("solve_millis", Json.Float ustats.Live.millis);
            ("total_millis", Json.Float millis);
            ("evicted_cache_entries", Json.Int evicted);
            ( "stages",
              Json.List
                (List.map
                   (fun (s : Live.stage_stats) ->
                     Json.Obj
                       [
                         ("stage", Json.String s.Live.stage);
                         ("action", Json.String s.Live.action);
                         ("iterations", Json.Int s.Live.iterations);
                         ("delta_tuples", Json.Int s.Live.delta_tuples);
                         ("millis", Json.Float s.Live.stage_millis);
                       ])
                   ustats.Live.stages) );
          ]
         @ published))
  with
  | Protocol.Bad_request msg -> Protocol.Reply (Protocol.err id msg)
  | Edit.Invalid_edit msg ->
    Protocol.Reply (Protocol.err id (Printf.sprintf "invalid edit: %s" msg))
  | e ->
    Protocol.Reply
      (Protocol.err id
         (Printf.sprintf "update failed: %s" (Printexc.to_string e)))

let updater_loop t ls =
  let rec next () =
    Mutex.lock ls.um;
    let rec wait () =
      if ls.ustop then None
      else if Queue.is_empty ls.updates then begin
        Condition.wait ls.uc ls.um;
        wait ()
      end
      else Some (Queue.pop ls.updates)
    in
    let job = wait () in
    Mutex.unlock ls.um;
    match job with
    | None -> ()
    | Some (request, deliver) ->
      deliver (perform_update t ls request);
      next ()
  in
  next ()

let start_updater t =
  match t.live with
  | Some ls when ls.uthread = None ->
    ls.uthread <- Some (Thread.create (fun () -> updater_loop t ls) ())
  | _ -> ()

let stop_updater t =
  match t.live with
  | Some ls -> (
    Mutex.lock ls.um;
    ls.ustop <- true;
    Condition.broadcast ls.uc;
    Mutex.unlock ls.um;
    match ls.uthread with
    | Some th ->
      Thread.join th;
      ls.uthread <- None
    | None -> ())
  | None -> ()

(* -- request intake ------------------------------------------------------ *)

let timeout_of t request =
  match Json.member "timeout_ms" request with
  | Some (Json.Int ms) when ms > 0 -> float_of_int ms /. 1000.
  | _ -> float_of_int t.config.default_timeout_ms /. 1000.

(* A slot whose response is known without evaluation. *)
let answered ?(close_conn = false) conn render out =
  Queue.push
    {
      out = Some out;
      deadline = infinity;
      seq = 0;
      cancelled = Atomic.make true;
      render;
      close_conn;
    }
    conn.slots

let fill t slot out =
  slot.out <- Some out;
  t.due <- Due.remove slot t.due

(* A generation swap stops the old pool after the pointer flips; a
   submit that raced the flip sees [false] and retries against the
   current pool. *)
let rec pool_submit t ~retries ~request ~cancelled ~deliver =
  let pool = t.gen.gpool in
  Pool.submit pool ~request ~cancelled ~deliver
  || (retries > 0 && not t.stopping
     && pool_submit t ~retries:(retries - 1) ~request ~cancelled ~deliver)

(* Submit one protocol request read from [conn]; the response lands in
   an ordered slot. *)
let submit t conn render ~close_conn request =
  t.next_seq <- t.next_seq + 1;
  let slot =
    {
      out = None;
      deadline = Unix.gettimeofday () +. timeout_of t request;
      seq = t.next_seq;
      cancelled = Atomic.make false;
      render;
      close_conn;
    }
  in
  Queue.push slot conn.slots;
  t.due <- Due.add slot t.due;
  let deliver outcome =
    let resp, quit =
      match outcome with
      | Protocol.Reply r -> (r, false)
      | Protocol.Quit r -> (r, true)
    in
    Mutex.protect t.cm (fun () ->
        Queue.push (slot, resp, quit) t.completions;
        wake_locked t)
  in
  let is_update =
    match Json.member "verb" request with
    | Some (Json.String "update") -> true
    | _ -> false
  in
  if is_update then
    match t.live with
    | None ->
      fill t slot
        (render
           (Protocol.err (Protocol.request_id request)
              "server is not running a live session (start jeddd with \
               --live)"))
    | Some ls ->
      Mutex.lock ls.um;
      Queue.push (request, deliver) ls.updates;
      Condition.signal ls.uc;
      Mutex.unlock ls.um
  else if
    not (pool_submit t ~retries:4 ~request ~cancelled:slot.cancelled ~deliver)
  then
    fill t slot
      (render
         (Protocol.err (Protocol.request_id request) "server is shutting down"))

let line_render v = Json.to_string v ^ "\n"

let handle_json_line t conn line =
  match Json.of_string line with
  | exception Json.Parse_error msg ->
    t.stats.parse_errors <- t.stats.parse_errors + 1;
    answered conn line_render
      (line_render
         (Protocol.err Json.Null (Printf.sprintf "parse error: %s" msg)))
  | Json.Obj _ as request -> submit t conn line_render ~close_conn:false request
  | _ ->
    t.stats.parse_errors <- t.stats.parse_errors + 1;
    answered conn line_render
      (line_render (Protocol.err Json.Null "request must be a JSON object"))

let has_room conn =
  (not conn.closing) && Queue.length conn.slots < max_pending

(* Frame newline-terminated requests off the input while the
   connection has room for more unanswered ones. *)
let rec frame_lines t conn =
  let b = conn.input in
  if has_room conn then
    match Iobuf.index_from b (b.Iobuf.pos + conn.scanned) '\n' with
    | None ->
      conn.scanned <- Iobuf.length b;
      if conn.scanned > max_line_buffer then conn.closing <- true
    | Some i ->
      let n = i - b.Iobuf.pos in
      let line = String.trim (Bytes.sub_string b.Iobuf.buf b.Iobuf.pos n) in
      Iobuf.consume b (n + 1);
      conn.scanned <- 0;
      if line <> "" then handle_json_line t conn line;
      frame_lines t conn

let http_render keep_alive v = Http.response ~keep_alive (Json.to_string v)

let handle_http_request t conn (req : Http.request) =
  let close_conn = not req.keep_alive in
  let render = http_render req.keep_alive in
  let reject status msg =
    answered ~close_conn conn render
      (Http.error_response ~keep_alive:req.keep_alive status msg)
  in
  match (req.meth, req.path) with
  | "POST", _ -> (
    match Json.of_string req.body with
    | exception Json.Parse_error msg ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      reject 400 (Printf.sprintf "parse error: %s" msg)
    | Json.Obj _ as request -> submit t conn render ~close_conn request
    | _ ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      reject 400 "request must be a JSON object")
  | "GET", "/ping" ->
    submit t conn render ~close_conn
      (Json.Obj [ ("verb", Json.String "ping") ])
  | "GET", "/stats" ->
    submit t conn render ~close_conn
      (Json.Obj [ ("verb", Json.String "stats") ])
  | "GET", _ -> reject 404 (Printf.sprintf "no such path %s" req.path)
  | _ -> reject 405 (Printf.sprintf "method %s not allowed" req.meth)

let rec frame_http t conn =
  let b = conn.input in
  if has_room conn && Iobuf.length b > 0 then
    (* the parser only reads the live bytes and copies what it keeps *)
    match
      Http.parse_request ~pos:b.Iobuf.pos ~len:(Iobuf.length b)
        (Bytes.unsafe_to_string b.Iobuf.buf)
    with
    | Http.Incomplete -> ()
    | Http.Invalid msg ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      Iobuf.clear b;
      (* reject and hang up: a framing error leaves the stream unusable *)
      answered ~close_conn:true conn (http_render false)
        (Http.error_response
           (if msg = "headers exceed 8192 bytes" then 431
            else if msg = "body too large" then 413
            else 400)
           msg);
      conn.closing <- true
    | Http.Complete (req, consumed) ->
      Iobuf.consume b consumed;
      handle_http_request t conn req;
      frame_http t conn

(* -- connection lifecycle ------------------------------------------------ *)

(* Forget the connection's outstanding requests; their jobs are flagged
   so late results are dropped. *)
let drop_slots t conn =
  Queue.iter
    (fun s ->
      Atomic.set s.cancelled true;
      if s.out = None then t.due <- Due.remove s t.due)
    conn.slots;
  Queue.clear conn.slots

let hang_up t conn =
  drop_slots t conn;
  Iobuf.clear conn.output;
  conn.closing <- true

let close_conn t conn =
  drop_slots t conn;
  Hashtbl.remove t.conns conn.fd;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  (* a descriptor is free again: unpark the listeners *)
  t.accept_resume <- 0.

(* select() fails with EINVAL on a descriptor it cannot hold in an
   fd_set; probing the new descriptor alone finds that out before it
   can take the whole loop down. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (e, _, _) -> e <> Unix.EINVAL

let refuse kind fd =
  let msg = "server overloaded: too many connections" in
  let reply =
    match kind with
    | Line -> line_render (Protocol.err Json.Null msg)
    | Http_conn -> Http.error_response 503 msg
  in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write_substring fd reply 0 (String.length reply))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_new t lfd kind =
  let rec go () =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      (* the listener stays readable while the backlog waits, so
         watching it now would spin *)
      t.accept_resume <- Unix.gettimeofday () +. accept_backoff_s
    | exception Unix.Unix_error _ -> ()
    | fd, _ when not (selectable fd) ->
      refuse kind fd;
      go ()
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      t.stats.connections <- t.stats.connections + 1;
      Hashtbl.replace t.conns fd
        {
          fd;
          kind;
          input = Iobuf.create ();
          scanned = 0;
          output = Iobuf.create ();
          slots = Queue.create ();
          eof = false;
          closing = false;
          blocked = false;
        };
      go ()
  in
  go ()

let read_conn t conn =
  match Unix.read conn.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> hang_up t conn
  | 0 -> conn.eof <- true
  | n -> Iobuf.add_sub conn.input t.rbuf 0 n

(* Move the longest answered prefix of the slot queue to the output;
   nothing after a response that closes the connection is sent. *)
let rec promote_slots t conn =
  match Queue.peek_opt conn.slots with
  | Some { out = Some bytes; close_conn; _ } ->
    ignore (Queue.pop conn.slots);
    Iobuf.add_string conn.output bytes;
    if close_conn then begin
      drop_slots t conn;
      conn.closing <- true
    end
    else promote_slots t conn
  | _ -> ()

(* Promote answers and frame buffered requests until neither moves:
   framing may answer at once (a parse error), which frees room. *)
let rec pump t conn =
  promote_slots t conn;
  let before = Iobuf.length conn.input in
  (match conn.kind with
  | Line -> frame_lines t conn
  | Http_conn -> frame_http t conn);
  if Iobuf.length conn.input < before then pump t conn

let flush_conn t conn =
  let b = conn.output in
  match Unix.write conn.fd b.Iobuf.buf b.Iobuf.pos (Iobuf.length b) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
    conn.blocked <- true
  | exception Unix.Unix_error _ -> hang_up t conn
  | n ->
    Iobuf.consume b n;
    conn.blocked <- Iobuf.length b > 0

(* Answer every overdue slot with a timeout error and flag its job. *)
let rec expire_due t now =
  match Due.min_elt_opt t.due with
  | Some s when now > s.deadline ->
    Atomic.set s.cancelled true;
    t.stats.timeouts <- t.stats.timeouts + 1;
    fill t s (s.render (Protocol.err Json.Null "timeout"));
    expire_due t now
  | _ -> ()

(* -- the loop ------------------------------------------------------------ *)

let drain_completions t =
  let pending = Queue.create () in
  Mutex.protect t.cm (fun () ->
      t.woken <- false;
      Queue.transfer t.completions pending);
  Queue.iter
    (fun (slot, resp, quit) ->
      if not (Atomic.get slot.cancelled) then fill t slot (slot.render resp);
      if quit then t.stopping <- true)
    pending

let stop t =
  t.stopping <- true;
  wake t

let wants_input t c = (not (t.stopping || c.eof)) && has_room c

(* Close every descriptor the loop owns, so each peer sees EOF rather
   than waiting on a loop that has left, then retire the workers. *)
let teardown t =
  List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) t.listeners;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  (match t.config.unix_path with
  | Some p -> ( try Unix.unlink p with _ -> ())
  | None -> ());
  stop_updater t;
  Pool.stop t.gen.gpool;
  Mutex.protect t.cm (fun () -> t.pipe_closed <- true);
  (try Unix.close t.wake_rd with _ -> ());
  try Unix.close t.wake_wr with _ -> ()

let run t =
  (* a peer that hangs up before reading its answer costs one failed
     write (EPIPE), not the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  start_updater t;
  let drainbuf = Bytes.create 256 in
  let drain_until = ref infinity in
  let rec loop () =
    let now = Unix.gettimeofday () in
    let accepting = (not t.stopping) && now >= t.accept_resume in
    let read_fds, write_fds =
      Hashtbl.fold
        (fun fd c (r, w) ->
          ( (if wants_input t c then fd :: r else r),
            if c.blocked then fd :: w else w ))
        t.conns
        ( t.wake_rd :: (if accepting then List.map fst t.listeners else []),
          [] )
    in
    let wake_at =
      match Due.min_elt_opt t.due with Some s -> s.deadline | None -> infinity
    in
    let wake_at =
      if accepting || t.stopping then wake_at
      else Float.min wake_at t.accept_resume
    in
    let timeout = Float.max 0.005 (Float.min 0.5 (wake_at -. now)) in
    let readable, writable, _ =
      try Unix.select read_fds write_fds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = t.wake_rd then (
          try
            while Unix.read t.wake_rd drainbuf 0 (Bytes.length drainbuf) > 0 do
              ()
            done
          with Unix.Unix_error _ -> ())
        else
          match List.assoc_opt fd t.listeners with
          | Some kind -> if not t.stopping then accept_new t fd kind
          | None -> Option.iter (read_conn t) (Hashtbl.find_opt t.conns fd))
      readable;
    List.iter
      (fun fd ->
        Option.iter (fun c -> c.blocked <- false) (Hashtbl.find_opt t.conns fd))
      writable;
    drain_completions t;
    expire_due t (Unix.gettimeofday ());
    (* output: promote ordered responses, then write what the kernel
       will take *)
    let to_close = ref [] in
    Hashtbl.iter
      (fun _ c ->
        pump t c;
        if Iobuf.length c.output > 0 && not c.blocked then flush_conn t c;
        if
          Iobuf.length c.output = 0 && Queue.is_empty c.slots
          && (c.eof || c.closing)
        then to_close := c :: !to_close)
      t.conns;
    List.iter (close_conn t) !to_close;
    if t.stopping then begin
      (* stop accepting, flush what remains, then leave *)
      let now = Unix.gettimeofday () in
      if !drain_until = infinity then drain_until := now +. stop_grace_s;
      let unflushed =
        Hashtbl.fold
          (fun _ c acc ->
            acc || Iobuf.length c.output > 0 || not (Queue.is_empty c.slots))
          t.conns false
      in
      if unflushed && now < !drain_until then loop ()
    end
    else loop ()
  in
  (try loop ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     t.stopping <- true;
     teardown t;
     Printexc.raise_with_backtrace e bt);
  teardown t
