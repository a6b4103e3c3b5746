(* The query worker pool: N OCaml domains evaluating protocol requests
   against one shared (ideally frozen) universe.

   With [workers > 1] the universe must be frozen and in-core: the pool
   flips the manager into parallel mode so hash-consing goes through
   the lock-striped unique table and every domain memoises in its own
   operation cache, while the frozen flag removes the whole
   GC/refcount/reorder coordination problem — queries only ever
   allocate scratch nodes, never reclaim.  Scratch is reclaimed by
   [frozen_sweep] at pool-local quiescence: the last worker to go idle
   sweeps while holding the pool lock, so no other domain can be
   touching the node store.

   With [workers = 1] any universe works (frozen or not): one domain
   drains the queue, which is how `jedd-analyze --serve` serves its
   live, refcounted analysis universe. *)

module M = Jedd_bdd.Manager
module U = Jedd_relation.Universe
module B = Jedd_relation.Backend
module Json = Jedd_server.Json
module Protocol = Jedd_server.Protocol
module Qeval = Jedd_server.Qeval
module Snapshot = Jedd_store.Snapshot

type job = {
  request : Json.t;
  cancelled : bool Atomic.t; (* set by the front end on timeout/hangup *)
  deliver : Protocol.outcome -> unit; (* runs on the worker domain *)
}

type t = {
  qeval : Qeval.t;
  manager : M.t;
  nworkers : int;
  parallel : bool; (* we entered parallel mode and must exit it *)
  sweep_threshold : int; (* scratch nodes tolerated before a sweep; 0 = off *)
  jobs : job Queue.t;
  m : Mutex.t;
  c : Condition.t;
  mutable stopping : bool;
  mutable active : int; (* workers currently evaluating *)
  mutable domains : unit Domain.t list;
  requests : int Atomic.t;
  errors : int Atomic.t;
  dropped : int Atomic.t; (* cancelled before a worker picked them up *)
}

let is_error = function
  | Protocol.Reply (Json.Obj kvs) | Protocol.Quit (Json.Obj kvs) ->
    List.assoc_opt "ok" kvs = Some (Json.Bool false)
  | _ -> false

(* Called with [t.m] held and [t.active = 0]: no other domain can touch
   the manager (idle workers hold no node references; a worker needs
   the lock to dequeue its next job). *)
let maybe_sweep t =
  if
    t.sweep_threshold > 0 && M.frozen t.manager
    && M.live_nodes t.manager - M.frozen_live_nodes t.manager
       > t.sweep_threshold
  then M.frozen_sweep t.manager

let rec worker_loop t =
  Mutex.lock t.m;
  let rec wait () =
    if t.stopping && Queue.is_empty t.jobs then None
    else if Queue.is_empty t.jobs then begin
      Condition.wait t.c t.m;
      wait ()
    end
    else Some (Queue.pop t.jobs)
  in
  match wait () with
  | None -> Mutex.unlock t.m
  | Some job ->
    if Atomic.get job.cancelled then begin
      Atomic.incr t.dropped;
      Mutex.unlock t.m;
      worker_loop t
    end
    else begin
      t.active <- t.active + 1;
      Mutex.unlock t.m;
      let outcome =
        try Qeval.eval t.qeval job.request
        with e ->
          Protocol.Reply
            (Protocol.err
               (Protocol.request_id job.request)
               (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
      in
      Atomic.incr t.requests;
      if is_error outcome then Atomic.incr t.errors;
      if not (Atomic.get job.cancelled) then job.deliver outcome;
      Mutex.lock t.m;
      t.active <- t.active - 1;
      if t.active = 0 then maybe_sweep t;
      Mutex.unlock t.m;
      worker_loop t
    end

let create ?(workers = 1) ~sweep_threshold qeval =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let u = (Qeval.world qeval).Protocol.snap.Snapshot.u in
  let manager = U.manager u in
  if workers > 1 then begin
    if B.kind (U.backend u) <> `Incore then
      invalid_arg "Pool.create: multi-worker serving needs the incore backend";
    if not (U.frozen u) then
      invalid_arg "Pool.create: multi-worker serving needs a frozen universe"
  end;
  let parallel = workers > 1 in
  if parallel then M.enter_parallel manager;
  let t =
    {
      qeval;
      manager;
      nworkers = workers;
      parallel;
      sweep_threshold;
      jobs = Queue.create ();
      m = Mutex.create ();
      c = Condition.create ();
      stopping = false;
      active = 0;
      domains = [];
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      dropped = Atomic.make 0;
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t ~request ~cancelled ~deliver =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    false
  end
  else begin
    Queue.push { request; cancelled; deliver } t.jobs;
    Condition.signal t.c;
    Mutex.unlock t.m;
    true
  end

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- [];
  if t.parallel then M.exit_parallel t.manager

let workers t = t.nworkers
let queue_depth t = Queue.length t.jobs
let requests t = Atomic.get t.requests
let errors t = Atomic.get t.errors

let stats_fields t : (string * Json.t) list =
  [
    ("workers", Json.Int t.nworkers);
    ("frozen", Json.Bool (M.frozen t.manager));
    ("frozen_sweeps", Json.Int (M.frozen_sweep_count t.manager));
    ("dropped", Json.Int (Atomic.get t.dropped));
  ]
