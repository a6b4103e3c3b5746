(* Workload "analyze": the jedd-analyze batch pipeline at default flags
   on the javac-shaped program.

   Set-up is the jeddc compile of the combined five-analysis source,
   repeated and reported as the median.  The measured loop runs the
   pipeline back to back a number of times set by the run's seconds;
   each run's results are checked tuple for tuple against the oracle.
   The traced run adds one stage-by-stage pass with the
   relation-operation recorder on. *)

open Common

let setup_compiles = 15

(* One pipeline run per 10 s of --seconds, so three at 30 s: a fixed
   amount of work, so that a slower run does not measure a different
   number of pipelines. *)
let pipelines ctx = max 1 (int_of_float ctx.seconds / 10)

let run ctx : outcome =
  let p = javac ~seed:ctx.seed in
  let notes = ref (check_oracle ()) in
  let oracle = Oracle.compute p in
  let compile_s =
    List.init setup_compiles (fun _ ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore (Pipeline.compile p);
        Unix.gettimeofday () -. t0)
  in
  let failed = ref (List.length !notes) in
  let check what r =
    match Oracle.mismatches oracle r with
    | [] -> ()
    | bad ->
      incr failed;
      notes :=
        Printf.sprintf "%s: %s differ from the oracle" what (String.concat ", " bad)
        :: !notes
  in
  (* the measured loop: a fixed number of pipeline runs; compaction and
     checks between runs stay out of the count *)
  let times = ref [] and last = ref None in
  for _ = 1 to pipelines ctx do
    last := None;
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let inst, r =
      Spans.with_span ctx.spans ~parent:Spans.root ~cat:"analyses" "analyze"
        (fun _ -> Pipeline.default_flags ~jobs:ctx.jobs p)
    in
    times := (Unix.gettimeofday () -. t0) :: !times;
    last := inst;
    check "pipeline" r
  done;
  let peak_mb = Daemon.peak_rss_mb (Unix.getpid ()) in
  let times_ms = List.map (fun s -> s *. 1000.) !times in
  let analyze_s = Stats.median !times in
  let runs = List.length !times in
  let layers =
    if not ctx.trace then []
    else begin
      let bdd =
        match !last with
        | Some inst ->
          Pipeline.universe_bdd_metrics (Jedd_lang.Interp.universe inst)
        | None -> []
      in
      last := None;
      let t = Pipeline.traced ctx.spans ~parent:Spans.root p in
      check "traced pipeline" t.Pipeline.results;
      let bdd =
        if bdd <> [] then bdd
        else
          Pipeline.universe_bdd_metrics
            (Jedd_lang.Interp.universe t.Pipeline.inst)
      in
      Pipeline.layer_metrics ctx.spans t @ bdd
      @ [
          ("trace.traced_s", t.Pipeline.total_s, "s");
          ("trace.untraced_s", analyze_s, "s");
          ("trace.overhead_s", t.Pipeline.total_s -. analyze_s, "s");
        ]
    end
  in
  {
    program = p;
    e2e =
      [
        ("setup_s", Stats.median compile_s, "s");
        ("p50_ms", Stats.median times_ms, "ms");
        (* a run holds three pipelines, too few for a tail
           quantile: the tail is the slowest of them *)
        ("tail_ms", List.fold_left Float.max 0. times_ms, "ms");
        ("ops_per_s", float_of_int runs /. List.fold_left ( +. ) 0. !times, "1/s");
        ("peak_mem_mb", peak_mb, "MB");
      ];
    paths =
      [
        ("setup_s", Stats.median compile_s, "s");
        ("analyze_s", analyze_s, "s");
        ("peak_mem_mb", peak_mb, "MB");
        ("pipeline_runs", float_of_int runs, "count");
      ];
    layers;
    samples = [ ("pipeline_ms", List.rev times_ms) ];
    attempted = 1 + runs + (if ctx.trace then 1 else 0);
    failed = !failed;
    notes = List.rev !notes;
  }
