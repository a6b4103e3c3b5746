(* Workload "edit": live edits beside reads, against `jeddd --live -b
   compress` as a child process.

   A run is a fixed number of editing sessions, set by --seconds alone,
   each a fresh daemon that takes [session_edits] edits.  One connection
   sends an Edit.random stream (removals included) as update requests
   in a closed loop; the benchmark applies each edit to its own
   copy of the program first, so every edit it sends is valid.  A second
   connection sends one pointsto read beside each update, [read_delay]
   after it, so the read pressure on the updater is one read per edit
   whatever either takes.  After the last edit the daemon's peak memory
   is read, a fixed number of reads go to the settled generation, its
   stats are taken, and its answers are checked against the oracle on
   the edited copy.

   Sessions keep the cost of an edit stationary: in one long stream the
   program grows with every addition, so each edit is dearer than the
   last.  A session of 150 edits still crosses the call-site headroom of
   the compiled domains, so the recompile path stays in the mix.  Every
   session runs to its last edit, whatever the time, so a run measures
   the same edits however fast they go.

   Each session's stream is seeded by the session's index alone, so
   every run makes the same edits; --seed picks the reads beside them
   and the final check's sample.  Streams drawn from different seeds
   differ in cost by up to an eighth (edit p50 56 against 63 ms, three
   runs each), which would swamp the change a benchmark must detect.

   Set-up is spawn-to-first-pong of a cold live session: the median
   over every daemon the run starts. *)

open Common
module Json = Jedd_server.Json
module Client = Jedd_server.Client
module Edit = Jedd_incr.Edit

let session_edits = 150
let extra_starts = 3

(* The read beside each edit goes out this long after the update, so
   that it lands while the update is being solved. *)
let read_delay = 0.005

(* Reads sent to the settled last generation, so that its eval stats
   hold a fixed sample of the reader's own requests. *)
let settled_reads = 100

(* One session per 7.5 s of --seconds, so four at 30 s.  A session
   takes about 10 s; the speed of one daemon on the same stream varies
   by up to a third from one start to the next (34-51 ms edit p50 over
   six starts), so a run averages several. *)
let sessions ctx = max 1 (int_of_float (ctx.seconds /. 7.5))

(* The lockstep of writer and reader: the writer counts an update as
   started when it sends it and, once the update is answered, waits
   until the reader has answered a read for it.  So every edit has
   exactly one read beside it, sent [read_delay] after the update,
   however long either takes.  Reads paced by the clock instead (20 or
   200 a second) made edit latency and the daemon's peak memory swing
   by up to a third between runs of the same edit stream. *)
type beat = {
  m : Mutex.t;
  c : Condition.t;
  mutable started : int;
  mutable read : int;
  mutable over : bool;  (** one side has stopped *)
}

let locked b f =
  Mutex.lock b.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.m) f

let signal b f =
  locked b (fun () ->
      f ();
      Condition.broadcast b.c)

let wait b cond = locked b (fun () -> while not (cond ()) do Condition.wait b.c b.m done)

type update = {
  millis : float;  (** client-observed, send to reply *)
  solve_millis : float;
  total_millis : float;
  mode : string;
}

let num r k =
  match Json.member k r with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Float.nan

(* The update loop.  Returns the edited program, the updates, and the
   failures as (count, notes). *)
let edit_loop ctx b ~port ~parent ~session p0 =
  let c = Daemon.connect port in
  let rng = Random.State.make [| session; 0x65646974 |] in
  let p = ref p0 and updates = ref [] and bad = ref 0 and notes = ref [] in
  let fail msg =
    incr bad;
    notes := msg :: !notes
  in
  (try
     while List.length !updates < session_edits && !bad = 0 do
       let e = Edit.random rng !p in
       match Edit.apply !p e with
       | exception Edit.Invalid_edit _ -> ()
       | p' ->
         if not (Edit_json.round_trips e) then
           fail ("edit does not round-trip through Serve.edit_of_json: " ^ Edit.describe e)
         else begin
           signal b (fun () -> b.started <- b.started + 1);
           let start_us = Spans.now_us () in
           let r = Client.request c (Edit_json.request e) in
           let dur_us = Spans.now_us () -. start_us in
           wait b (fun () -> b.read = b.started || b.over);
           ignore (Spans.add ctx.spans ~parent ~cat:"live" "update" ~tid:1 ~start_us ~dur_us);
           if Json.member "ok" r = Some (Json.Bool true) then begin
             p := p';
             updates :=
               {
                 millis = dur_us /. 1000.;
                 solve_millis = num r "solve_millis";
                 total_millis = num r "total_millis";
                 mode =
                   Option.value ~default:"?"
                     (Option.bind (Json.member "mode" r) Json.to_string_opt);
               }
               :: !updates
           end
           else fail ("update " ^ Edit.describe e ^ ": " ^ Json.to_string r)
         end
     done
   with e -> fail ("transport: " ^ Printexc.to_string e));
  Client.close c;
  (!p, List.rev !updates, !bad, List.rev !notes)

(* The final generation against the oracle on the edited program: every
   variable's points-to set, every call site's targets, and a seeded
   sample of member probes. *)
let final_check ~port (p : P.t) rng =
  let o = Oracle.compute p in
  let c = Daemon.connect port in
  let checks =
    List.init p.P.n_vars (fun v ->
        ( Client.req "pointsto" [ ("var", Json.Int v) ],
          Wl_serve.heaps_match o v ))
    @ List.map
        (fun (cs : P.call_site) ->
          let cs = cs.P.cs_id in
          (Client.req "resolve" [ ("callsite", Json.Int cs) ], Wl_serve.targets_match o cs))
        p.P.calls
    @ List.init 200 (fun _ ->
          let v = Random.State.int rng p.P.n_vars and h = Random.State.int rng (max 1 p.P.n_heap) in
          ( Client.req "member"
              [ ("rel", Json.String "PointsTo.pt"); ("tuple", Json.List [ Json.Int v; Json.Int h ]) ],
            fun r -> Json.member "member" r = Some (Json.Bool (Oracle.member o v h)) ))
  in
  let bad =
    List.filter
      (fun (req, check) ->
        match Client.request c req with
        | r -> not (Json.member "ok" r = Some (Json.Bool true) && check r)
        | exception _ -> true)
      checks
  in
  Client.close c;
  ( List.length checks,
    List.length bad,
    List.map (fun (req, _) -> "final generation differs from the oracle: " ^ Json.to_string req) bad )

type session = {
  updates : update list;
  edits_attempted : int;
  reads : Wl_serve.client_result;  (** the reads beside the edits *)
  settled : Wl_serve.client_result;
  checked : int;
  failed : int;
  notes : string list;
  stats : Json.t;  (** of the settled generation, before the final check *)
  peak_mb : float;  (** the daemon's peak RSS at the session's last edit *)
}

(* One daemon, [session_edits] edits each with its read, then the
   settled reads, the stats, and the final check. *)
let session ctx d ~parent ~index p0 =
  let port = d.Daemon.port in
  let b = { m = Mutex.create (); c = Condition.create (); started = 0; read = 0; over = false } in
  let stop () = signal b (fun () -> b.over <- true) in
  let writer = ref None in
  let th =
    Thread.create
      (fun () ->
        Fun.protect ~finally:stop (fun () ->
            writer := Some (edit_loop ctx b ~port ~parent ~session:index p0)))
      ()
  in
  let rng = Random.State.make [| ctx.seed; index; 0x72656164 |] in
  let read () =
    let v = Random.State.int rng p0.P.n_vars in
    ( "pointsto",
      Client.req "pointsto" [ ("var", Json.Int v) ],
      fun r -> Json.member "var" r = Some (Json.Int v) )
  in
  let reads =
    Fun.protect ~finally:stop (fun () ->
        Wl_serve.client_loop ctx ~port ~tid:2 ~parent read
          ~stop:(fun () ->
            wait b (fun () -> b.read < b.started || b.over);
            let last = locked b (fun () -> b.read = b.started) in
            if not last then Thread.delay read_delay;
            last)
          ~answered:(fun () -> signal b (fun () -> b.read <- b.read + 1)))
  in
  Thread.join th;
  let peak_mb = Daemon.peak_rss_mb d.Daemon.pid in
  let n = ref 0 in
  let settled =
    Wl_serve.client_loop ctx ~port
      ~stop:(fun () ->
        incr n;
        !n > settled_reads)
      ~tid:2 ~parent read
  in
  let stats = Daemon.stats d in
  let p, updates, edit_bad, edit_notes =
    match !writer with Some w -> w | None -> (p0, [], 1, [ "update loop died" ])
  in
  let checked, final_bad, final_notes =
    final_check ~port p (Random.State.make [| ctx.seed; index; 0x66696e |])
  in
  {
    updates;
    edits_attempted = List.length updates + edit_bad;
    reads;
    settled;
    checked;
    failed = edit_bad + reads.Wl_serve.bad + settled.Wl_serve.bad + final_bad;
    notes = edit_notes @ reads.Wl_serve.errors @ settled.Wl_serve.errors @ final_notes;
    stats;
    peak_mb;
  }

let run ctx : outcome =
  let p0 = Workload.generate (Workload.profile_named "compress") in
  let notes = ref (check_oracle ()) in
  let encoder_bad =
    List.filter (fun e -> not (Edit_json.round_trips e)) Edit_json.every_constructor
  in
  notes :=
    !notes
    @ List.map (fun e -> "encoder does not round-trip: " ^ Edit.describe e) encoder_bad;
  let live = [ "--live"; "-b"; "compress" ] in
  let starts =
    ref
      (List.init extra_starts (fun _ ->
           let d, s = Daemon.start ~exe:ctx.jeddd live in
           Daemon.stop d;
           s))
  in
  let sessions =
    Spans.with_span ctx.spans ~parent:Spans.root ~cat:"live" "edits" (fun parent ->
        List.init (sessions ctx) (fun index ->
            let d, s = Daemon.start ~exe:ctx.jeddd live in
            starts := s :: !starts;
            Fun.protect
              ~finally:(fun () -> Daemon.stop d)
              (fun () -> session ctx d ~parent ~index p0)))
  in
  let setup_s = Stats.median !starts in
  let updates = List.concat_map (fun s -> s.updates) sessions in
  let read_ms = List.concat_map (fun s -> s.reads.Wl_serve.lat_ms) sessions in
  let sum f = List.fold_left (fun a s -> a + f s) 0 sessions in
  let peak_mb = (List.hd sessions).peak_mb in
  let last = List.nth sessions (List.length sessions - 1) in
  let failed = List.length !notes + sum (fun s -> s.failed) in
  notes := !notes @ List.concat_map (fun s -> s.notes) sessions;
  let edit_ms = List.map (fun u -> u.millis) updates in
  let p50 = Stats.quantile 0.5 edit_ms and p90 = Stats.quantile 0.9 edit_ms in
  let read_p90 = Stats.quantile 0.9 read_ms and read_p99 = Stats.quantile 0.99 read_ms in
  let n_updates = List.length updates in
  let layers =
    if not ctx.trace then []
    else begin
      let solve = List.map (fun u -> u.solve_millis) updates in
      let mode m = float_of_int (List.length (List.filter (fun u -> u.mode = m) updates)) in
      (* each session's reads against the eval time of its settled
         generation *)
      let read_wait s =
        Stats.mean s.reads.Wl_serve.lat_ms -. Server_stats.eval_mean_ms s.stats "pointsto"
      in
      Server_stats.metrics last.stats
      @ [
          ("live.solve_p50_ms", Stats.quantile 0.5 solve, "ms");
          ("live.solve_p90_ms", Stats.quantile 0.9 solve, "ms");
        ]
      @ List.map
          (fun m -> ("live.mode." ^ m, mode m, "count"))
          [ "incremental"; "partial"; "rebuild"; "recompile" ]
      @ [
          ( "serve.swap_ms",
            Stats.median (List.map (fun u -> u.total_millis -. u.solve_millis) updates),
            "ms" );
          ("serve.read_wait_ms", Stats.median (List.map read_wait sessions), "ms");
        ]
    end
  in
  {
    program = p0;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("p50_ms", p50, "ms");
        ("tail_ms", read_p90, "ms");
        (* one closed-loop writer: updates per second of updating *)
        ("ops_per_s", 1000. /. Stats.mean edit_ms, "1/s");
        ("peak_mem_mb", peak_mb, "MB");
      ];
    paths =
      [
        ("setup_s", setup_s, "s");
        ("edit_p50_ms", p50, "ms");
        ("edit_p90_ms", p90, "ms");
        ("edit_read_p90_ms", read_p90, "ms");
        ("edit_read_p99_ms", read_p99, "ms");
        ("edits", float_of_int n_updates, "count");
        ("reads", float_of_int (List.length read_ms), "count");
        ("peak_mem_mb", peak_mb, "MB");
      ];
    layers;
    samples =
      [
        ("edit_ms", edit_ms);
        ("solve_ms", List.map (fun u -> u.solve_millis) updates);
        ("swap_ms", List.map (fun u -> u.total_millis -. u.solve_millis) updates);
        ("read_ms", read_ms);
      ];
    attempted =
      1 + List.length Edit_json.every_constructor
      + sum (fun s ->
            s.edits_attempted + s.reads.Wl_serve.sent + s.settled.Wl_serve.sent + s.checked);
    failed;
    notes = !notes;
  }
