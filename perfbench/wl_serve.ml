(* Workload "serve": warm queries against the real jeddd binary.

   jeddd runs as a child process at its default flags (one worker,
   frozen universe, 4096-entry result cache) and warm-starts from a
   snapshot of the javac-shaped program's combined run.  Set-up is
   spawn-to-first-pong, repeated and reported as the median.  Load is a
   closed loop over two TCP connections: about half Zipf-hot pointsto
   queries (keys fit the result cache), about half uniform member
   probes over (var, heap) pairs (a key space about 100x the cache),
   and a few resolve / tuples / count queries.  Every reply is checked
   against the oracle. *)

open Common
module Json = Jedd_server.Json
module Client = Jedd_server.Client

let daemon_starts = 15
let connections = 2

(* The daemon's peak RSS is read once this many queries are answered.
   Query scratch accumulates until the frozen universe's sweep
   threshold, and whether the node table doubles before the end of a
   run depends on how many queries the run fits in; memory at a fixed
   amount of work does not.  The end-of-run peak is reported too. *)
let mem_queries = 50_000

(* The snapshot depends only on the program and the code that computes
   it, so it is kept between runs, keyed by this executable's digest. *)
let snapshot_file ctx p =
  let digest = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat ctx.work (Printf.sprintf "javac-%s.snap" digest) in
  if not (Sys.file_exists path) then begin
    let inst, _ = Jedd_analyses.Suite.run_combined ~jobs:ctx.jobs p in
    Jedd_store.Snapshot.save_file path
      (Jedd_analyses.Suite.snapshot ~meta:[ ("workload", "javac") ] inst)
  end;
  path

(* Zipf(s = 1) over [n] keys, the hot ranks scattered by a seeded
   permutation. *)
let zipf rng n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun rng ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let ints = function
  | Some (Json.List l) -> List.filter_map Json.to_int_opt l
  | _ -> []

(* Checks of a pointsto and a resolve reply against the oracle. *)
let heaps_match o v r = List.sort compare (ints (Json.member "heaps" r)) = Oracle.heaps_of o v

let targets_match o cs r =
  let methods =
    match Json.member "targets" r with
    | Some (Json.List ts) ->
      List.filter_map (fun t -> Option.bind (Json.member "method" t) Json.to_int_opt) ts
    | _ -> []
  in
  List.sort_uniq compare methods = Oracle.targets_of o cs

(* A seeded request and the check its reply must pass. *)
let make_request (p : P.t) (o : Oracle.t) hot rng =
  let var () = Random.State.int rng p.P.n_vars in
  (* per mille; the few resolve / tuples / count queries stay under 1 %
     so the tail quantiles describe the pointsto / member bulk, not where the
     mix's minority verbs happen to fall *)
  let k = Random.State.int rng 1000 in
  let req verb fields = Client.req verb fields in
  if k < 500 then
    let v = hot rng in
    ( "pointsto",
      req "pointsto" [ ("var", Json.Int v) ],
      heaps_match o v )
  else if k < 995 then
    let v = var () and h = Random.State.int rng p.P.n_heap in
    ( "member",
      req "member"
        [ ("rel", Json.String "PointsTo.pt"); ("tuple", Json.List [ Json.Int v; Json.Int h ]) ],
      fun r -> Json.member "member" r = Some (Json.Bool (Oracle.member o v h)) )
  else if k < 997 then
    let cs = Random.State.int rng (Array.length o.Oracle.targets) in
    ( "resolve",
      req "resolve" [ ("callsite", Json.Int cs) ],
      targets_match o cs )
  else if k < 999 then
    let v = var () in
    ( "tuples",
      req "tuples"
        [
          ("rel", Json.String "PointsTo.pt");
          ("select", Json.Obj [ ("var", Json.Int v) ]);
          ("limit", Json.Int 8);
        ],
      fun r -> Json.member "total" r = Some (Json.Int (List.length (Oracle.heaps_of o v))) )
  else
    let rel, n =
      match Random.State.int rng 3 with
      | 0 -> ("PointsTo.pt", Oracle.pt_count o)
      | 1 -> ("CallGraph.reachable", Oracle.reachable_count o)
      | _ -> ("SideEffects.modSet", Oracle.effects_count o)
    in
    ( "count",
      req "count" [ ("rel", Json.String rel) ],
      fun r -> Json.member "tuples" r = Some (Json.Int n) )

type client_result = {
  lat_ms : float list;
  sent : int;
  bad : int;
  errors : string list;
}

(* One closed-loop connection until [stop ()]: send, wait, check,
   repeat.  [make] returns (verb, request, check); [answered] runs after
   every reply. *)
let client_loop ?(answered = ignore) ctx ~port ~stop ~tid ~parent make =
  let c = Daemon.connect port in
  let lat = ref [] and sent = ref 0 and bad = ref 0 and errors = ref [] in
  let note e = if List.length !errors < 5 then errors := e :: !errors in
  (try
     while not (stop ()) do
       let verb, req, check = make () in
       let start_us = Spans.now_us () in
       let reply = Client.request c req in
       let dur_us = Spans.now_us () -. start_us in
       ignore (Spans.add ctx.spans ~parent ~cat:"serve" ~tid verb ~start_us ~dur_us);
       incr sent;
       answered ();
       lat := (dur_us /. 1000.) :: !lat;
       if Json.member "ok" reply <> Some (Json.Bool true) then begin
         incr bad;
         note (verb ^ ": " ^ Json.to_string reply)
       end
       else if not (check reply) then begin
         incr bad;
         note (verb ^ " answer differs from the oracle: " ^ Json.to_string req)
       end
     done
   with e ->
     incr sent;
     incr bad;
     note ("transport: " ^ Printexc.to_string e));
  Client.close c;
  { lat_ms = !lat; sent = !sent; bad = !bad; errors = List.rev !errors }

(* [n] client threads running [loop tid] side by side. *)
let in_threads n loop =
  let results = Array.make n None in
  let threads =
    List.init n (fun i -> Thread.create (fun () -> results.(i) <- Some (loop (i + 1))) ())
  in
  List.iter Thread.join threads;
  Array.to_list results |> List.filter_map Fun.id

let run ctx : outcome =
  let p = Workload.generate (Workload.profile_named "javac") in
  let notes = ref (check_oracle ()) in
  let failed = List.length !notes in
  let oracle = Oracle.compute p in
  let snap = snapshot_file ctx p in
  let d, setup_s =
    Daemon.start_median ~exe:ctx.jeddd ~n:daemon_starts [ "--snapshot"; snap ]
  in
  let t_load = Unix.gettimeofday () in
  let deadline = t_load +. ctx.seconds in
  let stop () = Unix.gettimeofday () >= deadline in
  let served = Atomic.make 0 and peak_mb = ref Float.nan in
  let answered () =
    if Atomic.fetch_and_add served 1 = mem_queries - 1 then
      peak_mb := Daemon.peak_rss_mb d.Daemon.pid
  in
  let results =
    Spans.with_span ctx.spans ~parent:Spans.root ~cat:"serve" "load" (fun parent ->
        let hot = zipf (Random.State.make [| ctx.seed; 0 |]) p.P.n_vars in
        in_threads connections (fun tid ->
            let rng = Random.State.make [| ctx.seed; tid |] in
            client_loop ~answered ctx ~port:d.Daemon.port ~stop ~tid ~parent (fun () ->
                make_request p oracle hot rng)))
  in
  let elapsed = Unix.gettimeofday () -. t_load in
  let stats = Daemon.stats d in
  let peak_end_mb = Daemon.peak_rss_mb d.Daemon.pid in
  let peak_mb = if Float.is_nan !peak_mb then peak_end_mb else !peak_mb in
  Daemon.stop d;
  let lat = List.concat_map (fun r -> r.lat_ms) results in
  let sent = List.fold_left (fun a r -> a + r.sent) 0 results in
  let bad = List.fold_left (fun a r -> a + r.bad) 0 results in
  notes := !notes @ List.concat_map (fun r -> r.errors) results;
  let rps = float_of_int sent /. elapsed in
  let p50 = Stats.quantile 0.5 lat
  and p90 = Stats.quantile 0.9 lat
  and p99 = Stats.quantile 0.99 lat in
  let layers =
    if not ctx.trace then []
    else begin
      (* the store layer: the warm start's own load of the snapshot file *)
      let t0 = Unix.gettimeofday () in
      ignore
        (Spans.with_span ctx.spans ~parent:Spans.root ~cat:"store" "snapshot_load" (fun _ ->
             Jedd_store.Snapshot.load_file ~freeze:true snap));
      let load_ms = ms_since t0 in
      Server_stats.metrics stats
      @ [
          ("store.snapshot_load_ms", load_ms, "ms");
          ("store.snapshot_bytes", float_of_int (Unix.stat snap).Unix.st_size, "bytes");
          ( "serve.outside_eval_ms",
            Stats.mean lat -. Server_stats.eval_mean_over stats Server_stats.query_verbs,
            "ms" );
        ]
    end
  in
  {
    program = p;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("p50_ms", p50, "ms");
        ("tail_ms", p90, "ms");
        ("ops_per_s", rps, "1/s");
        ("peak_mem_mb", peak_mb, "MB");
      ];
    paths =
      [
        ("setup_s", setup_s, "s");
        ("serve_rps", rps, "1/s");
        ("query_p50_ms", p50, "ms");
        ("query_p90_ms", p90, "ms");
        ("query_p99_ms", p99, "ms");
        ("peak_mem_mb", peak_mb, "MB");
        ("peak_mem_end_mb", peak_end_mb, "MB");
      ];
    layers;
    samples = [];
    attempted = 1 + sent;
    failed = failed + bad;
    notes = !notes;
  }
