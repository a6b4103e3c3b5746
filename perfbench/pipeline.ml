(* The combined five-analysis pipeline, run the way the CLI runs it and
   the way the traced run takes it apart.

   [default_flags] is jedd-analyze at its default flags: in-core, no
   reorder, and with jobs > 1 the stage-parallel Suite.run_combined.

   [traced] makes the same computation through the public functions of
   each layer, one span per call: the Driver.compile phases (parse,
   typecheck, constraint build, Encode.solve), instantiation, then each
   stage's load_facts and run on a single combined instance.  The
   relation operations report through Jedd_profiler.Recorder at Counts
   level; each becomes a child span of the stage that issued it. *)

module P = Jedd_minijava.Program
module Suite = Jedd_analyses.Suite
module Interp = Jedd_lang.Interp
module U = Jedd_relation.Universe
module Recorder = Jedd_profiler.Recorder
module A = Jedd_analyses

let node_capacity = 1 lsl 16

let default_flags ~jobs p =
  if jobs > 1 then
    let inst, r = Suite.run_combined ~jobs p in
    (Some inst, r)
  else (None, Suite.run_all p)

let source p = [ ("Combined.jedd", Suite.combined_source p) ]

let compile p =
  match Jedd_lang.Driver.compile (source p) with
  | Ok c -> c
  | Error e -> failwith ("compile: " ^ Jedd_lang.Driver.error_to_string e)

type phases = {
  parse_ms : float;
  typecheck_ms : float;
  constraints_ms : float;
  assign_ms : float;
  constraint_nodes : int;
}

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.

(* Driver.compile one phase at a time, each in its own span. *)
let compile_phases spans ~parent p =
  Spans.with_span spans ~parent ~cat:"jedd" "compile" @@ fun parent ->
  let phase name f =
    let t0 = Unix.gettimeofday () in
    let v = Spans.with_span spans ~parent ~cat:"jedd" name (fun _ -> f ()) in
    (v, ms_since t0)
  in
  let decls, parse_ms =
    phase "parse" (fun () ->
        List.concat_map
          (fun (file, src) -> Jedd_lang.Parser.parse_program ~file src)
          (source p))
  in
  let tprog, typecheck_ms =
    phase "typecheck" (fun () -> Jedd_lang.Typecheck.check decls)
  in
  let graph, constraints_ms =
    phase "constraints" (fun () -> Jedd_lang.Constraints.build tprog)
  in
  let assignment, assign_ms =
    phase "assign" (fun () -> Jedd_lang.Encode.solve tprog graph)
  in
  ( (tprog, assignment),
    {
      parse_ms;
      typecheck_ms;
      constraints_ms;
      assign_ms;
      constraint_nodes = Jedd_lang.Constraints.node_count graph;
    } )

type traced = {
  results : Suite.results;
  inst : Interp.t;
  phases : phases;
  ops : Recorder.summary list;
  total_s : float;
}

let stages = [ "hierarchy"; "pointsto"; "vcall"; "callgraph"; "sideeffect" ]

let traced spans ~parent p =
  let t0 = Unix.gettimeofday () in
  Spans.with_span spans ~parent ~cat:"analyses" "pipeline" @@ fun parent ->
  let (tprog, assignment), phases = compile_phases spans ~parent p in
  let inst =
    Spans.with_span spans ~parent ~cat:"jedd" "instantiate" (fun _ ->
        Interp.instantiate ~node_capacity tprog assignment)
  in
  let u = Interp.universe inst in
  let recorder = Recorder.create () in
  Recorder.attach recorder u ~level:U.Counts;
  let current = ref parent in
  (* chain after the recorder: each op event also becomes a span ending
     now, under the stage span that is open *)
  U.set_on_op u
    (Some
       (fun (ev : U.op_event) ->
         Recorder.record recorder ev;
         let dur_us = ev.U.millis *. 1000. in
         ignore
           (Spans.add spans ~parent:!current ~cat:"relation" ev.U.op
              ~start_us:(Spans.now_us () -. dur_us) ~dur_us)));
  let stage name kind f =
    Spans.with_span spans ~parent ~cat:"analyses" (name ^ "." ^ kind)
      (fun id ->
        let outer = !current in
        current := id;
        Fun.protect ~finally:(fun () -> current := outer) f)
  in
  let results =
    Fun.protect ~finally:(fun () -> Recorder.detach u) @@ fun () ->
    stage "hierarchy" "load" (fun () -> A.Hierarchy.load_facts inst p);
    stage "hierarchy" "solve" (fun () -> A.Hierarchy.run inst);
    let subtypes = A.Hierarchy.results inst in
    stage "pointsto" "load" (fun () -> A.Pointsto.load_facts inst p);
    stage "pointsto" "solve" (fun () -> A.Pointsto.run inst);
    let pt = A.Pointsto.results inst in
    stage "vcall" "load" (fun () -> A.Vcall.load_facts inst p);
    stage "vcall" "solve" (fun () ->
        A.Vcall.run inst (Suite.receiver_types p pt));
    let resolved = A.Vcall.results inst in
    let call_edges = A.Vcall.call_edges inst in
    stage "callgraph" "load" (fun () ->
        A.Callgraph.load_facts inst p ~call_edges);
    stage "callgraph" "solve" (fun () -> A.Callgraph.run inst);
    let reachable = A.Callgraph.results inst in
    stage "sideeffect" "load" (fun () ->
        A.Sideeffect.load_facts inst p ~pt ~call_edges);
    stage "sideeffect" "solve" (fun () -> A.Sideeffect.run inst);
    let side_effects = A.Sideeffect.results inst in
    { Suite.subtypes; pt; resolved; call_edges; reachable; side_effects }
  in
  {
    results;
    inst;
    phases;
    ops = Recorder.summaries recorder;
    total_s = Unix.gettimeofday () -. t0;
  }

let relation_ops =
  [ "join"; "compose"; "replace"; "union"; "intersect"; "difference";
    "project"; "select"; "copy" ]

(* Per-layer rows of a traced pass: front-end phases, stage load and
   solve times (total and self, i.e. outside relation operations), and
   relation operations by kind. *)
let layer_metrics spans (t : traced) =
  let ms = "ms" in
  let ph = t.phases in
  [
    ("jedd.parse_ms", ph.parse_ms, ms);
    ("jedd.typecheck_ms", ph.typecheck_ms, ms);
    ("jedd.constraints_ms", ph.constraints_ms, ms);
    ("sat.assign_ms", ph.assign_ms, ms);
    ("jedd.constraint_nodes", float_of_int ph.constraint_nodes, "count");
  ]
  @ List.concat_map
      (fun s ->
        let total k = Spans.total_ms spans ~cat:"analyses" ~name:(s ^ "." ^ k) in
        [
          ("analyses." ^ s ^ ".load_ms", total "load", ms);
          ("analyses." ^ s ^ ".solve_ms", total "solve", ms);
          ( "analyses." ^ s ^ ".solve_self_ms",
            Spans.self_ms spans ~cat:"analyses" ~name:(s ^ ".solve"),
            ms );
        ])
      stages
  @ List.concat_map
      (fun op ->
        let rows = List.filter (fun (s : Recorder.summary) -> s.Recorder.op = op) t.ops in
        let sum f = List.fold_left (fun a s -> a +. f s) 0. rows in
        [
          ( "relation." ^ op ^ ".count",
            sum (fun s -> float_of_int s.Recorder.executions),
            "count" );
          ("relation." ^ op ^ ".ms", sum (fun s -> s.Recorder.total_millis), ms);
        ])
      relation_ops

(* -- BDD-layer counters -------------------------------------------------- *)

let cache_tags =
  [ "and"; "or"; "diff"; "xor"; "not"; "ite"; "exist"; "relprod";
    "relprod-replace"; "replace-exist"; "perm-order-ok" ]

(* [stat] looks a Recorder.runtime_stats key up; in-core universes and
   the daemon's stats verb both report them. *)
let bdd_metrics ~stat ~tag_rates =
  let hits = stat "cache_hits" and misses = stat "cache_misses" in
  [
    ("bdd.cache_hit_rate", Stats.ratio hits (hits +. misses), "ratio");
    ("bdd.cache_evictions", stat "cache_evictions", "count");
    ("bdd.gc_count", stat "gcs", "count");
    ("bdd.gc_ms", stat "gc_millis", "ms");
    ("bdd.grow_count", stat "grows", "count");
    ("bdd.grow_ms", stat "grow_millis", "ms");
    ("bdd.peak_nodes", stat "peak_nodes", "count");
    ("bdd.live_nodes", stat "live_nodes", "count");
    ("bdd.par.stw_sections", stat "parallel_stw_sections", "count");
    ("bdd.par.barrier_waits", stat "parallel_barrier_waits", "count");
    ("bdd.par.chunk_refills", stat "parallel_chunk_refills", "count");
    ("bdd.par.domains", stat "parallel_domains_used", "count");
  ]
  @ List.map
      (fun tag ->
        ( "bdd.cache_hit_rate." ^ tag,
          Option.value (List.assoc_opt tag tag_rates) ~default:0.,
          "ratio" ))
      cache_tags

let universe_bdd_metrics u =
  let stats = Recorder.runtime_stats u in
  let stat k = Option.value (List.assoc_opt k stats) ~default:0. in
  let tag_rates =
    List.map
      (fun (c : Jedd_bdd.Manager.cache_stat) ->
        ( c.Jedd_bdd.Manager.name,
          Stats.ratio (float_of_int c.hits) (float_of_int (c.hits + c.misses)) ))
      (Jedd_bdd.Manager.cache_stats (U.manager u))
  in
  bdd_metrics ~stat ~tag_rates
