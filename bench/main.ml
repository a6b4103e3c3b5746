(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe                 -- everything (default)
     dune exec bench/main.exe -- table1       -- Table 1 only
     dune exec bench/main.exe -- table2       -- Table 2 only
     dune exec bench/main.exe -- fig7         -- Figure 7 constraint graph
     dune exec bench/main.exe -- compactness  -- the §5 LoC comparison
     dune exec bench/main.exe -- ablation-compose | ablation-replace
                                | ablation-order | ablation-memory
     dune exec bench/main.exe -- bechamel     -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- reorder      -- order optimizer off vs on
     dune exec bench/main.exe -- backend      -- in-core vs extmem points-to
     dune exec bench/main.exe -- parallel     -- multi-core scaling curves
     dune exec bench/main.exe -- json         -- write BENCH_pr1.json
     dune exec bench/main.exe -- json2        -- write BENCH_pr2.json
     dune exec bench/main.exe -- json3        -- write BENCH_pr3.json
     dune exec bench/main.exe -- json5        -- write BENCH_pr5.json
                                                 (cold vs warm-start jeddd)
     dune exec bench/main.exe -- json6        -- write BENCH_pr6.json
                                                 (multi-core scaling, PR 6)
     dune exec bench/main.exe -- json8        -- write BENCH_pr8.json
                                                 (incremental cost per edit)
     dune exec bench/main.exe -- json9        -- write BENCH_pr9.json
                                                 (weighted assignment +
                                                 hybrid backend, PR 9)
     dune exec bench/main.exe -- json10       -- write BENCH_pr10.json
                                                 (mtbdd weighted analyses
                                                 vs boolean recount, PR 10)
     dune exec bench/main.exe -- smoke        -- seconds-scale sanity run
                                                 (also: dune build @bench-smoke)

   --backend=incore|extmem|hybrid|mtbdd (any command) selects the
   relation backend for every universe the benchmarks create, via
   JEDD_BACKEND. *)

module Workload = Jedd_minijava.Workload
module Program = Jedd_minijava.Program
module Suite = Jedd_analyses.Suite
module Baseline = Jedd_analyses.Pointsto_baseline
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module C = Jedd_lang.Constraints
module E = Jedd_lang.Encode

let line () = print_endline (String.make 100 '-')

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ----------------------------------------------------------------- *)
(* Table 1: size of the physical domain assignment problem            *)
(* ----------------------------------------------------------------- *)

let table1 () =
  line ();
  print_endline "Table 1: Size of the physical domain assignment problem";
  print_endline
    "(paper anchors: the combined analyses have 613 exprs / 1586 attributes;\n\
     zChaff solved the largest instance in 4.6 s on a 1833 MHz Athlon)";
  line ();
  Printf.printf "%-24s %6s %6s %5s | %8s %8s %10s | %9s %8s %9s | %8s\n"
    "Analysis" "Exprs" "Attrs" "Doms" "Conflict" "Equality" "Assignment"
    "Variables" "Clauses" "Literals" "Time (s)";
  line ();
  let p = Workload.generate (Workload.profile_named "javac") in
  let row name sources =
    match Driver.compile sources with
    | Error e ->
      Printf.printf "%-24s FAILED: %s\n" name (Driver.error_to_string e)
    | Ok c ->
      let st = c.Driver.constraint_stats in
      let sat = c.Driver.assignment.E.stats in
      Printf.printf "%-24s %6d %6d %5d | %8d %8d %10d | %9d %8d %9d | %8.4f\n"
        name st.C.n_rel_exprs st.C.n_attrs st.C.n_physdoms st.C.n_conflict
        st.C.n_equality st.C.n_assignment sat.E.sat_vars sat.E.sat_clauses
        sat.E.sat_literals sat.E.solve_seconds
  in
  List.iter
    (fun (name, _) -> row name [ (name, Suite.source_for p name) ])
    Suite.analyses;
  row "All 5 combined" [ ("combined.jedd", Suite.combined_source p) ];
  line ();
  print_endline
    "Shape check: the combined program dominates every single analysis in\n\
     every column, and solving time stays negligible next to building the\n\
     system — the paper's 'very acceptable' conclusion.\n"

(* ----------------------------------------------------------------- *)
(* Table 2: hand-coded vs Jedd points-to analysis                     *)
(* ----------------------------------------------------------------- *)

let table2 () =
  line ();
  print_endline "Table 2: Running time, hand-coded BDD vs Jedd points-to";
  print_endline
    "(paper: javac 3.4/3.5 s, compress 22.2/22.4 s, javac-1.3.1 26.2/26.3 s,\n\
     sablecc 25.8/26.1 s, jedit 39.7/41.3 s — overhead 0.5%..4%)";
  line ();
  Printf.printf "%-12s %14s %14s %10s %12s\n" "Benchmark" "Hand-coded (s)"
    "Jedd (s)" "Overhead" "pt tuples";
  line ();
  List.iter
    (fun (prof : Workload.profile) ->
      let p = Workload.generate prof in
      (* sub-second workloads are noise-prone: take the best of a few
         repetitions (setup excluded from the timed region) *)
      let best run_once =
        let t1 = run_once () in
        if t1 > 2.0 then t1
        else List.fold_left min t1 (List.init 2 (fun _ -> run_once ()))
      in
      let hand_tuples = ref 0 in
      let hand_t =
        best (fun () ->
            let b = Baseline.create p in
            let (), t = wall (fun () -> Baseline.solve b) in
            hand_tuples := List.length (Baseline.pt_tuples b);
            Baseline.destroy b;
            t)
      in
      (* jeddc runs at build time; the timed region is execution only *)
      let compiled = Suite.compile_one p "Points-to Analysis" in
      let jedd_tuples = ref 0 in
      let jedd_t =
        best (fun () ->
            let inst = Driver.instantiate ~node_capacity:(1 lsl 18) compiled in
            Jedd_analyses.Pointsto.load_facts inst p;
            let (), t = wall (fun () -> Jedd_analyses.Pointsto.run inst) in
            jedd_tuples := List.length (Jedd_analyses.Pointsto.results inst);
            t)
      in
      let overhead = (jedd_t -. hand_t) /. hand_t *. 100.0 in
      Printf.printf "%-12s %14.3f %14.3f %9.1f%% %12d%s\n" prof.Workload.name
        hand_t jedd_t overhead !jedd_tuples
        (if !hand_tuples <> !jedd_tuples then "  (MISMATCH!)" else ""))
    Workload.profiles;
  line ();
  print_endline
    "Shape check: both versions compute identical relations; Jedd pays a\n\
     small constant factor for the conveniences the paper lists.\n"

(* ----------------------------------------------------------------- *)
(* Figure 7: the constraint graph of the Figure 4 join                *)
(* ----------------------------------------------------------------- *)

let fig7_source =
  "domain Type 4;\n\
   domain Signature 4;\n\
   domain Method 4;\n\
   attribute type : Type;\n\
   attribute rectype : Type;\n\
   attribute tgttype : Type;\n\
   attribute signature : Signature;\n\
   attribute method : Method;\n\
   physdom T1;\nphysdom T2;\nphysdom S1;\nphysdom M1;\n\
   class Fig7 {\n\
   \  <type, signature, method> declaresMethod;\n\
   \  <rectype, signature, tgttype> toResolve;\n\
   \  public void go() {\n\
   \    <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =\n\
   \      toResolve{tgttype, signature} >< declaresMethod{type, signature};\n\
   \  }\n\
   }\n"

let fig7 () =
  line ();
  print_endline
    "Figure 7: physical-domain-assignment constraints for Fig. 4 lines 6-7";
  line ();
  match Driver.compile [ ("Fig7.jedd", fig7_source) ] with
  | Error e -> print_endline (Driver.error_to_string e)
  | Ok c ->
    let st = c.Driver.constraint_stats in
    Printf.printf
      "constraint graph: %d conflict edges, %d equality edges, %d assignment edges\n\n"
      st.C.n_conflict st.C.n_equality st.C.n_assignment;
    print_endline
      "resulting components (each attribute shares its component's domain,\n\
       so every dummy replace disappears):";
    let phys site attr =
      (c.Driver.assignment.E.phys_of site attr).Jedd_lang.Tast.p_name
    in
    let show_var v attrs =
      List.iter
        (fun a ->
          Printf.printf "  %-24s %-10s -> %s\n" v a (phys (C.S_var v) a))
        attrs
    in
    show_var "Fig7.toResolve" [ "rectype"; "signature"; "tgttype" ];
    show_var "Fig7.declaresMethod" [ "type"; "signature"; "method" ];
    show_var "Fig7.go.resolved" [ "rectype"; "signature"; "tgttype"; "method" ];
    print_endline
      "\nExpected partition (paper): {rectype}->T1, {signatures}->S1,\n\
       {tgttype,type}->T2, {method}->M1 — no replace operations remain.\n"

(* ----------------------------------------------------------------- *)
(* §5 compactness: lines of Jedd vs lines of conventional code        *)
(* ----------------------------------------------------------------- *)

let ncloc text =
  List.length
    (List.filter
       (fun l ->
         let l = String.trim l in
         String.length l > 0
         && not (String.length l >= 2 && String.sub l 0 2 = "//")
         && not (String.length l >= 2 && String.sub l 0 2 = "(*"))
       (String.split_on_char '\n' text))

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let compactness () =
  line ();
  print_endline
    "§5 compactness: the side-effect analysis in Jedd vs conventional code";
  print_endline "(paper: 803 non-comment lines of Java vs 124 lines of Jedd)";
  line ();
  let jedd_lines = ncloc Jedd_analyses.Sideeffect.source in
  let conventional =
    List.fold_left
      (fun acc path -> match read_file path with
        | s -> acc + ncloc s
        | exception _ -> acc)
      0
      [ "lib/minijava/reference.ml"; "../lib/minijava/reference.ml" ]
  in
  Printf.printf "  Jedd side-effect analysis      : %d lines\n" jedd_lines;
  Printf.printf
    "  conventional (sets + worklists): %d lines for all five analyses\n"
    conventional;
  if conventional > 0 then
    Printf.printf
      "  per-analysis conventional ~ %d lines -> Jedd is ~%.1fx more compact\n\n"
      (conventional / 5)
      (float_of_int (conventional / 5) /. float_of_int (max 1 jedd_lines))

(* ----------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ----------------------------------------------------------------- *)

module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Fdd = Jedd_bdd.Fdd

let ablation_compose () =
  line ();
  print_endline
    "Ablation (§2.2.3): compose (one-pass relational product) vs\n\
     join-then-project, measured as two complete points-to solves";
  line ();
  Printf.printf "%-12s %14s %20s %10s %14s\n" "Benchmark" "relprod (s)"
    "join+project (s)" "speedup" "peak nodes";
  List.iter
    (fun name ->
      let p = Workload.generate (Workload.profile_named name) in
      let b1 = Baseline.create p in
      let (), t_rel = wall (fun () -> Baseline.solve ~use_relprod:true b1) in
      let b2 = Baseline.create p in
      let (), t_jp = wall (fun () -> Baseline.solve ~use_relprod:false b2) in
      let peak1 = M.peak_nodes (Baseline.manager b1) in
      let peak2 = M.peak_nodes (Baseline.manager b2) in
      Printf.printf "%-12s %14.3f %20.3f %9.2fx %7d/%7d\n" name t_rel t_jp
        (t_jp /. t_rel) peak1 peak2;
      Baseline.destroy b1;
      Baseline.destroy b2)
    [ "javac"; "sablecc" ];
  (* The effect §2.2.3 describes appears when the materialised
     conjunction is much larger than the projected result: compose two
     dense random binary relations R(x,y) ; S(y,z). *)
  let m = M.create ~node_capacity:(1 lsl 18) () in
  let bits = 9 in
  let bx = Fdd.extdomain_bits m bits in
  let by = Fdd.extdomain_bits m bits in
  let bz = Fdd.extdomain_bits m bits in
  let st = Random.State.make [| 424242 |] in
  let random_rel b1 b2 n =
    let acc = ref M.zero in
    for _ = 1 to n do
      let tup =
        Ops.band m
          (Fdd.ithvar m b1 (Random.State.int st (1 lsl bits)))
          (Fdd.ithvar m b2 (Random.State.int st (1 lsl bits)))
      in
      acc := Ops.bor m !acc tup
    done;
    M.addref m !acc
  in
  let r = random_rel bx by 4000 in
  let s = random_rel by bz 4000 in
  let y_cube = M.addref m (Fdd.domain_cube m by) in
  let result_rel, t_rel =
    wall (fun () ->
        M.clear_caches m;
        Quant.relprod m r s y_cube)
  in
  let result_jp, t_jp =
    wall (fun () ->
        M.clear_caches m;
        let conj = Ops.band m r s in
        Quant.exist m conj y_cube)
  in
  assert (result_rel = result_jp);
  Printf.printf
    "\n  dense composition R;S (4000-tuple random relations, 9-bit domains):\n";
  Printf.printf "    relprod        : %.4f s\n" t_rel;
  Printf.printf "    join + project : %.4f s  -> relprod %.2fx faster\n" t_jp
    (t_jp /. t_rel);
  print_endline
    "  (join-then-project materialises the full conjunction before\n\
     quantifying; the relational product never builds it — the reason\n\
     §2.2.3 gives for having both >< and <> in the language.  On the\n\
     points-to fixpoints above the intermediate stays small, so the two\n\
     strategies tie; dense compositions show the gap.)\n"

let ablation_replace () =
  line ();
  print_endline
    "Ablation (§3.3.2): replaces kept by the assignment vs the naive\n\
     wrap-everything translation";
  line ();
  let p = Workload.generate (Workload.profile_named "compress") in
  let compiled = Suite.compile_one p "Points-to Analysis" in
  let inst = Driver.instantiate compiled in
  let recorder = Jedd_profiler.Recorder.create () in
  Jedd_profiler.Recorder.attach recorder (Interp.universe inst)
    ~level:Jedd_relation.Universe.Counts;
  Jedd_analyses.Pointsto.load_facts inst p;
  Jedd_analyses.Pointsto.run inst;
  Jedd_profiler.Recorder.detach (Interp.universe inst);
  let rows = Jedd_profiler.Recorder.rows recorder in
  let total = List.length rows in
  let replaces =
    List.length
      (List.filter
         (fun (r : Jedd_profiler.Recorder.row) ->
           r.event.Jedd_relation.Universe.op = "replace")
         rows)
  in
  let st = compiled.Driver.constraint_stats in
  Printf.printf "  dummy replaces in the wrap-everything translation : %d sites\n"
    st.C.n_assignment;
  Printf.printf
    "  replace operations actually executed (whole run)  : %d of %d ops\n"
    replaces total;
  print_endline
    "  (the naive translation replaces at every consumption point on every\n\
     iteration; the SAT assignment keeps only the layout changes the\n\
     dataflow genuinely needs)\n"

let ablation_order () =
  line ();
  print_endline
    "Ablation (§3.3.1): bit ordering — interleaved vs consecutive blocks";
  line ();
  let n = 10 in
  let run interleaved =
    let m = M.create ~node_capacity:(1 lsl 16) () in
    let b1, b2 =
      if interleaved then
        match Fdd.extdomains_interleaved m [ 1 lsl n; 1 lsl n ] with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      else (Fdd.extdomain_bits m n, Fdd.extdomain_bits m n)
    in
    let eq = Fdd.equality m b1 b2 in
    Jedd_bdd.Count.nodecount m eq
  in
  let inter = run true and consec = run false in
  Printf.printf "  equality relation over two %d-bit domains:\n" n;
  Printf.printf "    interleaved bits : %6d BDD nodes (linear)\n" inter;
  Printf.printf "    consecutive bits : %6d BDD nodes (exponential)\n" consec;
  Printf.printf "    ratio            : %.0fx\n\n"
    (float_of_int consec /. float_of_int inter)

let ablation_memory () =
  line ();
  print_endline "Ablation (§4.2): eager releases vs leaking handles";
  line ();
  let chain release_temps =
    let u = Jedd_relation.Universe.create () in
    let d = Jedd_relation.Domain.declare ~name:"D" ~size:4096 () in
    let ph = Jedd_relation.Physdom.declare u ~name:"P" ~bits:12 in
    let a = Jedd_relation.Attribute.declare ~name:"a" ~domain:d in
    let sch =
      Jedd_relation.Schema.make [ { Jedd_relation.Schema.attr = a; phys = ph } ]
    in
    let acc = ref (Jedd_relation.Relation.empty u sch) in
    let keep_alive = ref [] in
    for i = 0 to 400 do
      let t = Jedd_relation.Relation.tuple u sch [ i * 7 mod 4096 ] in
      let next = Jedd_relation.Relation.union !acc t in
      Jedd_relation.Relation.release t;
      if release_temps then Jedd_relation.Relation.release !acc
      else keep_alive := !acc :: !keep_alive;
      acc := next
    done;
    let m = Jedd_relation.Universe.manager u in
    M.gc m;
    (M.live_nodes m, M.peak_nodes m)
  in
  let live_e, peak_e = chain true in
  let live_l, peak_l = chain false in
  Printf.printf
    "  union chain (401 steps), eager release : %6d live / %6d peak nodes\n"
    live_e peak_e;
  Printf.printf
    "  union chain (401 steps), leak handles  : %6d live / %6d peak nodes\n"
    live_l peak_l;
  print_endline
    "  (eager reference-count drops let the BDD GC reclaim dead\n\
     intermediate relations; holding handles pins every intermediate,\n\
     exactly the §4.2 failure mode Jedd's containers avoid)\n"

(* §4.1: "several researchers have suggested using ZDDs for our
   points-to analysis algorithms" — compare representation sizes of the
   converged points-to relation. *)
let ablation_zdd () =
  line ();
  print_endline
    "Ablation (§4.1): BDD vs ZDD node counts for the points-to relation";
  line ();
  Printf.printf "%-12s %10s %10s %10s %8s\n" "Benchmark" "pt tuples"
    "BDD nodes" "ZDD nodes" "ratio";
  List.iter
    (fun name ->
      let p = Workload.generate (Workload.profile_named name) in
      let b = Baseline.create p in
      Baseline.solve b;
      let m = Baseline.manager b in
      let pt = Baseline.pt_rel b in
      let bdd_nodes = Jedd_bdd.Count.nodecount m pt in
      let z = Jedd_bdd.Zdd.create () in
      let support = Jedd_bdd.Count.support_levels m pt in
      let znode = Jedd_bdd.Zdd.of_bdd ~over:support m pt z in
      let zdd_nodes = Jedd_bdd.Zdd.nodecount z znode in
      let tuples = List.length (Baseline.pt_tuples b) in
      Printf.printf "%-12s %10d %10d %10d %8.2f\n" name tuples bdd_nodes
        zdd_nodes
        (float_of_int bdd_nodes /. float_of_int zdd_nodes);
      Baseline.destroy b)
    [ "compress"; "javac"; "sablecc" ];
  print_endline
    "  (sparse relations favour zero-suppression; the ratio quantifies\n\
     what the paper's planned ZDD backend stood to gain)\n"

(* ----------------------------------------------------------------- *)
(* Bechamel micro-benchmarks (one per table)                          *)
(* ----------------------------------------------------------------- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let p = Workload.generate Workload.tiny in
  let test_table1 =
    Test.make ~name:"table1-compile-assign-pointsto"
      (Staged.stage (fun () ->
           ignore (Suite.compile_one p "Points-to Analysis")))
  in
  let test_table2 =
    Test.make ~name:"table2-handcoded-pointsto-tiny"
      (Staged.stage (fun () ->
           let b = Baseline.create p in
           Baseline.solve b;
           Baseline.destroy b))
  in
  let tests = Test.make_grouped ~name:"jedd" [ test_table1; test_table2 ] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  print_endline "Bechamel micro-benchmarks (monotonic clock):";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-40s %14.1f ns/run\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* Machine-readable benchmark summary (BENCH_pr1.json) and the        *)
(* seconds-scale smoke run behind the @bench-smoke alias              *)
(* ----------------------------------------------------------------- *)

module Rep = Jedd_bdd.Replace

let ops_per_sec f =
  ignore (f ());
  (* double the repetition count until the timed region is long enough
     to trust the clock *)
  let rec go n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.25 then go (n * 2) else float_of_int n /. dt
  in
  go 4

(* Microbenchmark fixture mirroring the runtime's join/compose pattern:
   consecutive physical-domain blocks, with the shared attribute moved
   by an order-preserving block permutation — the fused kernels' fast
   path, exactly the layout the SAT assignment produces. *)
let kernel_fixture () =
  let m = M.create ~node_capacity:(1 lsl 18) () in
  let bits = 10 in
  let bx = Fdd.extdomain_bits m bits in
  let by = Fdd.extdomain_bits m bits in
  let by' = Fdd.extdomain_bits m bits in
  let bz = Fdd.extdomain_bits m bits in
  let bw = Fdd.extdomain_bits m bits in
  let st = Random.State.make [| 987654321 |] in
  let random_tuple blocks =
    List.fold_left
      (fun acc b ->
        Ops.band m acc (Fdd.ithvar m b (Random.State.int st (1 lsl bits))))
      M.one blocks
  in
  let random_rel blocks n =
    let acc = ref M.zero in
    for _ = 1 to n do
      acc := Ops.bor m !acc (random_tuple blocks)
    done;
    M.addref m !acc
  in
  let f = random_rel [ bx; by ] 3000 in
  let f2 = random_rel [ bx; by ] 3000 in
  let g = random_rel [ by'; bz ] 3000 in
  (* ternary relation for the project+coerce benchmark: quantifying the
     trailing attribute leaves a large survivor to re-lay out *)
  let g3 = random_rel [ by'; bz; bw ] 3000 in
  (* move g's copy of the shared attribute onto f's block, and back *)
  let p_in = Rep.make_perm m (Fdd.perm_pairs m by' by) in
  let p_out = Rep.make_perm m (Fdd.perm_pairs m by by') in
  let cube_shared = M.addref m (Fdd.domain_cube m by) in
  let cube_w = M.addref m (Fdd.domain_cube m bw) in
  (m, f, f2, g, g3, by', bz, p_in, p_out, cube_shared, cube_w)

type micro = { name : string; ops : float }

let kernel_microbench () =
  let m, f, f2, g, g3, _, _, p_in, p_out, cube_shared, cube_w =
    kernel_fixture ()
  in
  ignore p_out;
  (* correctness gate: never report timings for wrong answers *)
  let gate a b = if a <> b then failwith "microbench equivalence violated" in
  gate
    (Rep.relprod_replace m f g p_in M.one)
    (Ops.band m f (Rep.replace m g p_in));
  gate
    (Rep.relprod_replace m f g p_in cube_shared)
    (Quant.relprod m f (Rep.replace m g p_in) cube_shared);
  gate
    (Rep.replace_exist m g3 p_in cube_w)
    (Rep.replace m (Quant.exist m g3 cube_w) p_in);
  let bench name op =
    {
      name;
      ops =
        ops_per_sec (fun () ->
            M.clear_caches m;
            op ());
    }
  in
  [
    bench "band" (fun () -> Ops.band m f f2);
    bench "relprod" (fun () -> Quant.relprod m f f2 cube_shared);
    bench "replace" (fun () -> Rep.replace m g p_in);
    bench "join_fused" (fun () -> Rep.relprod_replace m f g p_in M.one);
    bench "join_unfused" (fun () -> Ops.band m f (Rep.replace m g p_in));
    bench "compose_fused" (fun () ->
        Rep.relprod_replace m f g p_in cube_shared);
    bench "compose_unfused" (fun () ->
        Quant.relprod m f (Rep.replace m g p_in) cube_shared);
    (* project-then-relayout, the runtime's project + coerce pattern:
       quantify the trailing attribute and re-lay out the survivor *)
    bench "replace_exist_fused" (fun () ->
        Rep.replace_exist m g3 p_in cube_w);
    bench "replace_exist_unfused" (fun () ->
        Rep.replace m (Quant.exist m g3 cube_w) p_in);
  ]

type pt_result = {
  pt_name : string;
  hand_seconds : float;
  jedd_seconds : float;
  pt_tuples : int;
  pt_peak_nodes : int;
  pt_hits : int;
  pt_misses : int;
  pt_tags : M.cache_stat list;
}

let pointsto_bench name =
  let p = Workload.generate (Workload.profile_named name) in
  let b = Baseline.create p in
  let (), hand_t = wall (fun () -> Baseline.solve b) in
  let hand_tuples = List.length (Baseline.pt_tuples b) in
  Baseline.destroy b;
  let compiled = Suite.compile_one p "Points-to Analysis" in
  let inst = Driver.instantiate ~node_capacity:(1 lsl 18) compiled in
  Jedd_analyses.Pointsto.load_facts inst p;
  let (), jedd_t = wall (fun () -> Jedd_analyses.Pointsto.run inst) in
  let tuples = List.length (Jedd_analyses.Pointsto.results inst) in
  if tuples <> hand_tuples then begin
    Printf.eprintf "points-to mismatch on %s: hand %d vs jedd %d tuples\n" name
      hand_tuples tuples;
    exit 1
  end;
  let m = Jedd_relation.Universe.manager (Interp.universe inst) in
  let hits, misses, _ = M.cache_totals m in
  {
    pt_name = name;
    hand_seconds = hand_t;
    jedd_seconds = jedd_t;
    pt_tuples = tuples;
    pt_peak_nodes = M.peak_nodes m;
    pt_hits = hits;
    pt_misses = misses;
    pt_tags = M.cache_stats m;
  }

let hit_rate hits misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

let bench_json ?(path = "BENCH_pr1.json") () =
  let micro = kernel_microbench () in
  let pts = List.map pointsto_bench [ "javac"; "compress" ] in
  let fused, fallback = Rep.fused_stats () in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v1\",\n";
  out "  \"microbench_ops_per_sec\": {\n";
  List.iteri
    (fun i { name; ops } ->
      out "    %S: %.2f%s\n" name ops
        (if i = List.length micro - 1 then "" else ","))
    micro;
  out "  },\n";
  out "  \"pointsto\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"benchmark\": %S, \"hand_seconds\": %.4f, \"jedd_seconds\": \
         %.4f, \"tuples\": %d, \"peak_nodes\": %d, \"cache_hits\": %d, \
         \"cache_misses\": %d, \"cache_hit_rate\": %.4f}%s\n"
        r.pt_name r.hand_seconds r.jedd_seconds r.pt_tuples r.pt_peak_nodes
        r.pt_hits r.pt_misses
        (hit_rate r.pt_hits r.pt_misses)
        (if i = List.length pts - 1 then "" else ","))
    pts;
  out "  ],\n";
  (match pts with
  | last :: _ ->
    out "  \"cache_tags_jedd_pointsto_%s\": [\n" last.pt_name;
    let active =
      List.filter
        (fun (s : M.cache_stat) -> s.hits + s.misses + s.stores > 0)
        last.pt_tags
    in
    List.iteri
      (fun i (s : M.cache_stat) ->
        out
          "    {\"tag\": %S, \"hits\": %d, \"misses\": %d, \"stores\": %d, \
           \"evictions\": %d, \"hit_rate\": %.4f}%s\n"
          s.name s.hits s.misses s.stores s.evictions
          (hit_rate s.hits s.misses)
          (if i = List.length active - 1 then "" else ","))
      active;
    out "  ],\n"
  | [] -> ());
  out "  \"fused_kernel_calls\": %d,\n" fused;
  out "  \"fallback_kernel_calls\": %d\n" fallback;
  out "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* Reorder: points-to under a deliberately bad declaration order,     *)
(* variable-order optimizer off vs on, with the good order as control *)
(* ----------------------------------------------------------------- *)

(* V1/V2 and H1/H2 pushed to opposite ends of the order: every copy
   rule's replace and every join over the pair pays for the spread —
   the worst case §3.3.1 warns about. *)
let bad_physdom_order =
  [ "V1"; "T1"; "T2"; "T3"; "S1"; "M1"; "H1"; "M2"; "V2"; "C1"; "F1"; "H2" ]

type reorder_run = {
  rr_label : string;
  rr_seconds : float;
  rr_tuples : int;
  rr_peak : int;
  rr_live : int;
  rr_reorders : int;
  rr_swaps : int;
  rr_aborts : int;
}

let reorder_run ~label ?physdom_order ~reorder name =
  Printf.eprintf "[reorder] %s (%s)...\n%!" label name;
  let p = Workload.generate (Workload.profile_named name) in
  let source =
    Jedd_analyses.Common.preamble ?physdom_order p
    ^ Jedd_analyses.Pointsto.source
  in
  let compiled =
    match Driver.compile [ ("PointsTo.jedd", source) ] with
    | Ok c -> c
    | Error e -> failwith (Driver.error_to_string e)
  in
  let inst = Driver.instantiate ~node_capacity:(1 lsl 18) compiled in
  Jedd_analyses.Pointsto.load_facts inst p;
  let (), secs = wall (fun () -> Jedd_analyses.Pointsto.run ~reorder inst) in
  Printf.eprintf "[reorder]   ... %.2fs\n%!" secs;
  let tuples = List.length (Jedd_analyses.Pointsto.results inst) in
  let u = Interp.universe inst in
  let m = Jedd_relation.Universe.manager u in
  (match M.check_invariants m with
  | [] -> ()
  | errs ->
    List.iter
      (fun e -> Printf.eprintf "reorder invariant violation: %s\n" e)
      errs;
    exit 1);
  M.gc m;
  let engine = Jedd_relation.Universe.reorder_engine u in
  let aborts =
    List.fold_left
      (fun acc (e : Jedd_reorder.Reorder.event) -> acc + e.aborts)
      0
      (Jedd_reorder.Reorder.events engine)
  in
  {
    rr_label = label;
    rr_seconds = secs;
    rr_tuples = tuples;
    rr_peak = M.peak_nodes m;
    rr_live = M.live_nodes m;
    rr_reorders = M.reorder_count m;
    rr_swaps = M.swap_count m;
    rr_aborts = aborts;
  }

(* Sequenced with lets: OCaml evaluates list elements right-to-left,
   which would run the configurations in a confusing order. *)
let reorder_runs name =
  let good_off = reorder_run ~label:"good-order/reorder-off" ~reorder:false name in
  let good_on = reorder_run ~label:"good-order/reorder-on" ~reorder:true name in
  let bad_off =
    reorder_run ~label:"bad-order/reorder-off"
      ~physdom_order:bad_physdom_order ~reorder:false name
  in
  let bad_on =
    reorder_run ~label:"bad-order/reorder-on"
      ~physdom_order:bad_physdom_order ~reorder:true name
  in
  [ good_off; good_on; bad_off; bad_on ]

(* Workload selectable for experimentation; javac is the headline. *)
let reorder_benchmark_name () =
  match Sys.getenv_opt "JEDD_REORDER_BENCH" with
  | Some s -> s
  | None -> "javac"

let reorder_bench () =
  let name = reorder_benchmark_name () in
  line ();
  Printf.printf
    "Reorder: points-to (%s) under good vs bad declaration order\n" name;
  line ();
  let runs = reorder_runs name in
  Printf.printf "%-26s %9s %10s %10s %9s %7s %7s\n" "configuration" "seconds"
    "peak" "live" "reorders" "swaps" "aborts";
  List.iter
    (fun r ->
      Printf.printf "%-26s %9.3f %10d %10d %9d %7d %7d\n" r.rr_label
        r.rr_seconds r.rr_peak r.rr_live r.rr_reorders r.rr_swaps r.rr_aborts)
    runs;
  match runs with
  | [ _; _; off; on ] ->
    Printf.printf "bad-order peak nodes %d -> %d (%.2fx)\n" off.rr_peak
      on.rr_peak
      (float_of_int off.rr_peak /. float_of_int (max 1 on.rr_peak))
  | _ -> ()

let bench_json2 ?(path = "BENCH_pr2.json") () =
  let name = reorder_benchmark_name () in
  let runs = reorder_runs name in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v2\",\n";
  out "  \"benchmark\": %S,\n" name;
  out "  \"reorder_pointsto\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"config\": %S, \"seconds\": %.4f, \"tuples\": %d, \
         \"peak_nodes\": %d, \"live_nodes\": %d, \"reorders\": %d, \
         \"swaps\": %d, \"aborts\": %d}%s\n"
        r.rr_label r.rr_seconds r.rr_tuples r.rr_peak r.rr_live r.rr_reorders
        r.rr_swaps r.rr_aborts
        (if i = List.length runs - 1 then "" else ","))
    runs;
  out "  ]\n";
  out "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* Backend comparison: in-core shared node table vs the out-of-core   *)
(* streaming (extmem) engine, plus the capped-memory scenario the     *)
(* extmem backend exists for.                                         *)
(* ----------------------------------------------------------------- *)

type backend_run = {
  bk_config : string;
  bk_completed : bool;  (* false: aborted with Manager.Out_of_nodes *)
  bk_seconds : float;
  bk_tuples : int;
  bk_peak_nodes : int;  (* in-core node-table peak; tiny under extmem *)
  bk_spill_runs : int;
  bk_spilled_bytes : int;
  bk_pq_peak_bytes : int;
  bk_io_millis : float;
}

(* One points-to solve on the named workload under the given backend.
   Extmem byte budgets are set through the environment so Store.create
   picks them up; restored afterwards so other bench commands are
   unaffected. *)
let backend_pointsto ~config ~backend ?node_limit ?pq_bytes ?mem_nodes profile =
  Printf.eprintf "[backend] %s (%s)...\n%!" config profile.Workload.name;
  let set_env k = function
    | Some v ->
      let old = Sys.getenv_opt k in
      Unix.putenv k (string_of_int v);
      fun () -> Unix.putenv k (match old with Some s -> s | None -> "")
    | None -> fun () -> ()
  in
  let restore_pq = set_env "JEDD_EXTMEM_PQ_BYTES" pq_bytes in
  let restore_mem = set_env "JEDD_EXTMEM_MEM_NODES" mem_nodes in
  Fun.protect
    ~finally:(fun () ->
      restore_pq ();
      restore_mem ())
    (fun () ->
      let p = Workload.generate profile in
      let compiled = Suite.compile_one p "Points-to Analysis" in
      let inst =
        Driver.instantiate ~node_capacity:(1 lsl 18) ?node_limit ~backend
          compiled
      in
      let u = Interp.universe inst in
      let finish completed secs tuples =
        let m = Jedd_relation.Universe.manager u in
        let runs, bytes, pq_peak, io =
          match Jedd_relation.Backend.store (Jedd_relation.Universe.backend u) with
          | Some st ->
            Jedd_extmem.Store.
              (spill_runs st, spilled_bytes st, pq_peak_bytes st, io_millis st)
          | None -> (0, 0, 0, 0.0)
        in
        let r =
          {
            bk_config = config;
            bk_completed = completed;
            bk_seconds = secs;
            bk_tuples = tuples;
            bk_peak_nodes = M.peak_nodes m;
            bk_spill_runs = runs;
            bk_spilled_bytes = bytes;
            bk_pq_peak_bytes = pq_peak;
            bk_io_millis = io;
          }
        in
        Jedd_relation.Universe.cleanup u;
        Printf.eprintf "[backend]   ... %s in %.2fs\n%!"
          (if completed then "completed" else "out of nodes")
          secs;
        r
      in
      let t0 = Unix.gettimeofday () in
      match
        Jedd_analyses.Pointsto.load_facts inst p;
        Jedd_analyses.Pointsto.run inst
      with
      | () ->
        let secs = Unix.gettimeofday () -. t0 in
        let tuples = List.length (Jedd_analyses.Pointsto.results inst) in
        finish true secs tuples
      | exception M.Out_of_nodes ->
        finish false (Unix.gettimeofday () -. t0) 0)

(* Default workload: a mid-size profile between compress and javac-13.
   The extmem engine trades time for bounded memory (every operation is
   a file-backed sweep with no cross-operation cache, typically 1-2
   orders of magnitude slower), so the paper-sized javac/javac-13
   profiles take tens of minutes out of core — selectable via
   JEDD_BACKEND_BENCH for patient runs, but not a sane default for a
   regeneratable benchmark. *)
let backend_mid_profile =
  {
    Workload.name = "pointsto-mid";
    classes = 60;
    sigs_per_class = 3;
    methods_scale = 2;
    vars_per_method = 5;
    heap_per_method = 2;
    fields = 24;
    assign_factor = 7;
    field_ops_per_method = 2;
    calls_per_method = 2;
    seed = 77;
  }

let backend_benchmark_profile () =
  match Sys.getenv_opt "JEDD_BACKEND_BENCH" with
  | Some "tiny" -> Workload.tiny
  | Some s -> Workload.profile_named s
  | None -> backend_mid_profile

let backend_runs () =
  let profile = backend_benchmark_profile () in
  let name = profile.Workload.name in
  let incore =
    backend_pointsto ~config:"incore/unlimited" ~backend:`Incore profile
  in
  (* Cap the node table well below the in-core peak: the in-core run
     must abort cleanly, the extmem run under the same cap must finish
     with the identical relation. *)
  let node_limit = max 4096 (incore.bk_peak_nodes / 4) in
  let capped =
    backend_pointsto ~config:"incore/capped" ~backend:`Incore ~node_limit
      profile
  in
  (* Budgets low enough to force priority-queue spills to disk. *)
  let extmem =
    backend_pointsto ~config:"extmem/capped" ~backend:`Extmem ~node_limit
      ~pq_bytes:16384 ~mem_nodes:2048 profile
  in
  (name, node_limit, [ incore; capped; extmem ], incore, capped, extmem)

let backend_bench () =
  let name, node_limit, runs, incore, capped, extmem = backend_runs () in
  line ();
  Printf.printf
    "Backend: points-to (%s), in-core vs out-of-core streaming (extmem)\n"
    name;
  line ();
  Printf.printf "%-18s %9s %9s %10s %7s %12s %10s %9s\n" "configuration"
    "seconds" "tuples" "peak" "runs" "spilled(B)" "pq-peak(B)" "io(ms)";
  List.iter
    (fun r ->
      Printf.printf "%-18s %9s %9d %10d %7d %12d %10d %9.1f\n" r.bk_config
        (if r.bk_completed then Printf.sprintf "%.3f" r.bk_seconds
         else "aborted")
        r.bk_tuples r.bk_peak_nodes r.bk_spill_runs r.bk_spilled_bytes
        r.bk_pq_peak_bytes r.bk_io_millis)
    runs;
  Printf.printf "node limit for the capped runs: %d nodes\n" node_limit;
  if capped.bk_completed then begin
    Printf.printf "FAIL: capped in-core run should have hit Out_of_nodes\n";
    exit 1
  end;
  if (not extmem.bk_completed) || extmem.bk_tuples <> incore.bk_tuples
  then begin
    Printf.printf "FAIL: extmem run did not reproduce the in-core result\n";
    exit 1
  end;
  Printf.printf
    "extmem completed under the cap with the identical %d-tuple relation\n"
    extmem.bk_tuples

let bench_json3 ?(path = "BENCH_pr3.json") () =
  let name, node_limit, runs, incore, capped, extmem = backend_runs () in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v3\",\n";
  out "  \"benchmark\": %S,\n" name;
  out "  \"node_limit\": %d,\n" node_limit;
  out "  \"backend_pointsto\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"config\": %S, \"completed\": %b, \"seconds\": %.4f, \
         \"tuples\": %d, \"peak_nodes\": %d, \"spill_runs\": %d, \
         \"spilled_bytes\": %d, \"pq_peak_bytes\": %d, \"io_millis\": \
         %.1f}%s\n"
        r.bk_config r.bk_completed r.bk_seconds r.bk_tuples r.bk_peak_nodes
        r.bk_spill_runs r.bk_spilled_bytes r.bk_pq_peak_bytes r.bk_io_millis
        (if i = List.length runs - 1 then "" else ","))
    runs;
  out "  ],\n";
  out "  \"capped_incore_aborted\": %b,\n" (not capped.bk_completed);
  out "  \"extmem_matches_incore\": %b\n"
    (extmem.bk_completed && extmem.bk_tuples = incore.bk_tuples);
  out "}\n";
  if capped.bk_completed then begin
    Printf.eprintf "json3: capped in-core run should have hit Out_of_nodes\n";
    exit 1
  end;
  if (not extmem.bk_completed) || extmem.bk_tuples <> incore.bk_tuples
  then begin
    Printf.eprintf "json3: extmem run did not reproduce the in-core result\n";
    exit 1
  end;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

module Serve = Jedd_serve.Serve
module SJson = Jedd_server.Json

(* Start a serve front end on all three transports, run [f], always
   stop the server.  Each call loads its own universe from the
   snapshot file, so freeze (which is one-way) never leaks between
   runs. *)
let with_server ~workers ~frozen snap_path hash f =
  let snap = Jedd_store.Snapshot.load_file ~freeze:frozen snap_path in
  let sock = Filename.temp_file "jedd-serve" ".sock" in
  Sys.remove sock;
  let config =
    {
      Serve.default_config with
      unix_path = Some sock;
      tcp = Some ("127.0.0.1", 0);
      http = Some ("127.0.0.1", 0);
      workers;
    }
  in
  let server = Serve.create ~config ~universe_hash:hash snap in
  let th = Thread.create Serve.run server in
  let tcp_port =
    match Serve.tcp_port server with Some p -> p | None -> 0
  in
  let http_port =
    match Serve.http_port server with Some p -> p | None -> 0
  in
  let finally () =
    Serve.stop server;
    Thread.join th;
    if Sys.file_exists sock then Sys.remove sock
  in
  match f ~sock ~tcp_port ~http_port with
  | v ->
    finally ();
    v
  | exception e ->
    finally ();
    raise e

(* ----------------------------------------------------------------- *)
(* BENCH_pr5.json: the jeddd warm-start story.  Cold = run the full   *)
(* combined pipeline and answer one points-to query; warm = load the  *)
(* snapshot the cold run saved and answer the same query; server =    *)
(* per-query round-trip latency against a live jeddd socket.  The     *)
(* acceptance bar is cold/warm >= 5x.                                 *)
(* ----------------------------------------------------------------- *)

let bench_json5 ?(path = "BENCH_pr5.json") () =
  let bench_name =
    match Sys.getenv_opt "JEDD_BENCH_WORKLOAD" with
    | Some n -> n
    | None -> "javac"
  in
  let p = Workload.generate (Workload.profile_named bench_name) in
  let snap_path = Filename.temp_file "jedd-bench" ".snap" in
  (* cold: compute the fixed point, persist it, answer pointsto(var) *)
  let module Snapshot = Jedd_store.Snapshot in
  let module R = Jedd_relation.Relation in
  let query_rel snap var =
    match Snapshot.find_relation snap "PointsTo.pt" with
    | None -> failwith "snapshot lacks PointsTo.pt"
    | Some pt ->
      let var_attr, heap_attr =
        match Jedd_relation.Schema.attrs (R.schema pt) with
        | [ a; b ] ->
          if Jedd_relation.Attribute.name a = "var" then (a, b) else (b, a)
        | _ -> failwith "PointsTo.pt is not binary"
      in
      let sel = R.select pt [ (var_attr, var) ] in
      let heaps = R.project_away sel [ var_attr ] in
      ignore heap_attr;
      let n = R.size heaps in
      R.release sel;
      R.release heaps;
      n
  in
  let (snap_cold, query_var, cold_heaps), cold_s =
    wall (fun () ->
        let inst, r = Suite.run_combined p in
        let snap = Suite.snapshot ~meta:[ ("workload", bench_name) ] inst in
        Snapshot.save_file snap_path snap;
        (* a var that actually points somewhere, so the query is real *)
        let query_var =
          match r.Suite.pt with (v :: _) :: _ -> v | _ -> 0
        in
        (snap, query_var, query_rel snap query_var))
  in
  let pt_tuples =
    match Snapshot.find_relation snap_cold "PointsTo.pt" with
    | Some pt -> R.size pt
    | None -> 0
  in
  (* warm: load the snapshot, answer the same query; no fixed point *)
  let (warm_heaps, warm_relations), warm_s =
    wall (fun () ->
        let snap = Snapshot.load_file snap_path in
        (query_rel snap query_var, List.length snap.Snapshot.relations))
  in
  (* server: round-trip latency for the same query over the socket *)
  let module Client = Jedd_server.Client in
  let n_queries = 200 in
  let lat = Array.make n_queries 0.0 in
  with_server ~workers:1 ~frozen:false snap_path
    (Digest.to_hex (Digest.file snap_path))
    (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = Client.connect ~retries:10 sock in
      for i = 0 to n_queries - 1 do
        let (_ : int list), dt = wall (fun () -> Client.pointsto c query_var) in
        lat.(i) <- dt
      done;
      Client.close c);
  Array.sort compare lat;
  let mean = Array.fold_left ( +. ) 0.0 lat /. float_of_int n_queries in
  let p95 = lat.(n_queries * 95 / 100) in
  let speedup = cold_s /. warm_s in
  let snap_bytes = (Unix.stat snap_path).Unix.st_size in
  Sys.remove snap_path;
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v5\",\n";
  out "  \"benchmark\": %S,\n" bench_name;
  out "  \"query_var\": %d,\n" query_var;
  out "  \"pt_tuples\": %d,\n" pt_tuples;
  out "  \"snapshot_bytes\": %d,\n" snap_bytes;
  out "  \"snapshot_relations\": %d,\n" warm_relations;
  out "  \"cold_seconds\": %.4f,\n" cold_s;
  out "  \"warm_seconds\": %.4f,\n" warm_s;
  out "  \"warm_speedup\": %.1f,\n" speedup;
  out "  \"results_match\": %b,\n" (cold_heaps = warm_heaps);
  out "  \"server_query_mean_ms\": %.3f,\n" (mean *. 1000.);
  out "  \"server_query_p95_ms\": %.3f,\n" (p95 *. 1000.);
  out "  \"server_queries\": %d\n" n_queries;
  out "}\n";
  if cold_heaps <> warm_heaps then begin
    Printf.eprintf "json5: warm-start query disagrees with cold (%d vs %d)\n"
      cold_heaps warm_heaps;
    exit 1
  end;
  if speedup < 5.0 then begin
    Printf.eprintf "json5: warm-start speedup %.1fx is below the 5x bar\n"
      speedup;
    exit 1
  end;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* Parallel scaling: points-to hot path and the combined suite at     *)
(* 1/2/4/8 domains, with bit-identical-results gates (PR 6)           *)
(* ----------------------------------------------------------------- *)

type par_run = {
  pr_jobs : int;
  pr_seconds : float; (* best of [par_repeats] *)
  pr_all_seconds : float list;
  pr_forks : int;
  pr_steals : int;
  pr_stw : int;
  pr_barrier_waits : int;
  pr_chunk_refills : int;
  pr_domains_used : int;
}

let par_jobs_curve = [ 1; 2; 4; 8 ]
let par_repeats = 3
let host_cpus () = Domain.recommended_domain_count ()

(* Table 2's hand-coded solver with every relprod/union on the
   work-stealing pool.  The timed region is the solve only; the gate is
   exact tuple-set equality with the sequential solver. *)
let pointsto_par_runs name =
  let p = Workload.generate (Workload.profile_named name) in
  let bseq = Baseline.create p in
  Baseline.solve bseq;
  let ref_tuples = Baseline.pt_tuples bseq in
  Baseline.destroy bseq;
  let run jobs =
    let times = ref [] in
    let forks = ref 0 and steals = ref 0 in
    let stw = ref 0 and waits = ref 0 and refills = ref 0 and doms = ref 0 in
    for _ = 1 to par_repeats do
      let b = Baseline.create p in
      let (f, s), t = wall (fun () -> Baseline.solve_par ~jobs b) in
      if Baseline.pt_tuples b <> ref_tuples then begin
        Printf.eprintf
          "json6: parallel points-to (jobs=%d) differs from sequential\n" jobs;
        exit 1
      end;
      let ps = M.par_stats (Baseline.manager b) in
      forks := f;
      steals := s;
      stw := ps.M.par_stw_sections;
      waits := ps.M.par_barrier_waits;
      refills := ps.M.par_chunk_refills;
      doms := ps.M.par_domains;
      Baseline.destroy b;
      times := t :: !times
    done;
    {
      pr_jobs = jobs;
      pr_seconds = List.fold_left min infinity !times;
      pr_all_seconds = List.rev !times;
      pr_forks = !forks;
      pr_steals = !steals;
      pr_stw = !stw;
      pr_barrier_waits = !waits;
      pr_chunk_refills = !refills;
      pr_domains_used = !doms;
    }
  in
  List.map run par_jobs_curve

(* The five Figure 2 analyses end to end, stage-parallel
   ({Hierarchy ∥ Points-to} → Vcall → {Call Graph ∥ Side Effects}); the
   gate is equality of all five result lists with the jobs=1 run. *)
let combined_par_runs name =
  let p = Workload.generate (Workload.profile_named name) in
  let results_of (r : Suite.results) =
    (r.Suite.subtypes, r.Suite.pt, r.Suite.resolved, r.Suite.reachable,
     r.Suite.side_effects)
  in
  let reference = ref None in
  let run jobs =
    let times = ref [] in
    let stw = ref 0 and waits = ref 0 and refills = ref 0 and doms = ref 0 in
    for _ = 1 to par_repeats do
      let (inst, r), t = wall (fun () -> Suite.run_combined ~jobs p) in
      (match !reference with
      | None -> reference := Some (results_of r)
      | Some rr ->
        if results_of r <> rr then begin
          Printf.eprintf
            "json6: combined suite (jobs=%d) differs from jobs=1\n" jobs;
          exit 1
        end);
      let m = Jedd_relation.Universe.manager (Interp.universe inst) in
      let ps = M.par_stats m in
      stw := ps.M.par_stw_sections;
      waits := ps.M.par_barrier_waits;
      refills := ps.M.par_chunk_refills;
      doms := ps.M.par_domains;
      times := t :: !times
    done;
    {
      pr_jobs = jobs;
      pr_seconds = List.fold_left min infinity !times;
      pr_all_seconds = List.rev !times;
      pr_forks = 0;
      pr_steals = 0;
      pr_stw = !stw;
      pr_barrier_waits = !waits;
      pr_chunk_refills = !refills;
      pr_domains_used = !doms;
    }
  in
  List.map run par_jobs_curve

let par_benchmark_name () = "javac"

let speedup_at runs jobs =
  let base = (List.find (fun r -> r.pr_jobs = 1) runs).pr_seconds in
  match List.find_opt (fun r -> r.pr_jobs = jobs) runs with
  | Some r when r.pr_seconds > 0.0 -> base /. r.pr_seconds
  | _ -> 0.0

let parallel_bench () =
  line ();
  let name = par_benchmark_name () in
  Printf.printf
    "Parallel scaling on %s (host cpus: %d; best of %d runs per point)\n"
    name (host_cpus ()) par_repeats;
  let show title runs =
    Printf.printf "%s\n" title;
    Printf.printf
      "  %5s %10s %9s %9s %9s %6s %8s %8s\n"
      "jobs" "seconds" "speedup" "forks" "steals" "stw" "waits" "refills";
    List.iter
      (fun r ->
        Printf.printf "  %5d %10.3f %8.2fx %9d %9d %6d %8d %8d\n" r.pr_jobs
          r.pr_seconds
          (speedup_at runs r.pr_jobs)
          r.pr_forks r.pr_steals r.pr_stw r.pr_barrier_waits
          r.pr_chunk_refills)
      runs
  in
  show "hand-coded points-to join/compose (solve_par):"
    (pointsto_par_runs name);
  show "combined five-analysis suite (run_combined ~jobs):"
    (combined_par_runs name)

let bench_json6 ?(path = "BENCH_pr6.json") () =
  let name = par_benchmark_name () in
  let cpus = host_cpus () in
  let pts = pointsto_par_runs name in
  let comb = combined_par_runs name in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let emit_runs runs =
    List.iteri
      (fun i r ->
        out
          "    {\"jobs\": %d, \"seconds\": %.4f, \"speedup\": %.3f, \
           \"runs\": [%s], \"forks\": %d, \"steals\": %d, \
           \"stw_sections\": %d, \"barrier_waits\": %d, \
           \"chunk_refills\": %d, \"domains_used\": %d}%s\n"
          r.pr_jobs r.pr_seconds
          (speedup_at runs r.pr_jobs)
          (String.concat ", "
             (List.map (Printf.sprintf "%.4f") r.pr_all_seconds))
          r.pr_forks r.pr_steals r.pr_stw r.pr_barrier_waits
          r.pr_chunk_refills r.pr_domains_used
          (if i = List.length runs - 1 then "" else ","))
      runs
  in
  let pt4 = speedup_at pts 4 and comb4 = speedup_at comb 4 in
  let gate_asserted = cpus >= 4 in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v6\",\n";
  out "  \"benchmark\": %S,\n" name;
  out "  \"host_cpus\": %d,\n" cpus;
  out "  \"repeats\": %d,\n" par_repeats;
  out "  \"pointsto_solve_par\": [\n";
  emit_runs pts;
  out "  ],\n";
  out "  \"combined_suite\": [\n";
  emit_runs comb;
  out "  ],\n";
  out "  \"results_identical\": true,\n";
  out "  \"speedup_gate\": {\"required_at_4_domains\": 2.0, \
       \"asserted\": %b, \"pointsto_speedup_at_4\": %.3f, \
       \"combined_speedup_at_4\": %.3f}\n"
    gate_asserted pt4 comb4;
  out "}\n";
  (* The curves only rise with real cores under them: on a single-core
     host the gate degrades to the (unconditional) identity checks. *)
  if gate_asserted && pt4 < 2.0 && comb4 < 2.0 then begin
    Printf.eprintf
      "json6: speedup at 4 domains below the 2x bar on a %d-cpu host \
       (pointsto %.2fx, combined %.2fx)\n"
      cpus pt4 comb4;
    exit 1
  end;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* BENCH_pr7.json: the serving story.  One snapshot on disk behind    *)
(* the jeddd-serve front end; a frozen worker sweep at 1/2/4/8        *)
(* domains under closed-loop multi-client load; a frozen-vs-          *)
(* refcounted single-worker comparison on the same load; and a        *)
(* three-transport differential gate (bit-identical responses over    *)
(* Unix, TCP and HTTP, at every worker count, against workers=1).     *)
(* ----------------------------------------------------------------- *)

let serve_fixture () =
  let bench_name =
    match Sys.getenv_opt "JEDD_BENCH_WORKLOAD" with
    | Some n -> n
    | None -> "javac"
  in
  let p = Workload.generate (Workload.profile_named bench_name) in
  let inst, r = Suite.run_combined p in
  let snap = Suite.snapshot ~meta:[ ("workload", bench_name) ] inst in
  let snap_path = Filename.temp_file "jedd-serve" ".snap" in
  Jedd_store.Snapshot.save_file snap_path snap;
  let hash = Digest.to_hex (Digest.file snap_path) in
  (* distinct vars that actually point somewhere, so queries are real *)
  let seen = Hashtbl.create 16 in
  let vars =
    List.filter_map
      (function
        | v :: _ when not (Hashtbl.mem seen v) ->
          Hashtbl.add seen v ();
          Some v
        | _ -> None)
      r.Suite.pt
  in
  let vars = if vars = [] then [ 0 ] else vars in
  (bench_name, snap_path, hash, Array.of_list vars)

(* Deterministic read-only queries for the differential gate; stats is
   deliberately excluded (uptime and counters vary). *)
let differential_queries vars =
  let q verb fields = SJson.Obj (("verb", SJson.String verb) :: fields) in
  [ q "ping" []; q "version" []; q "relations" [] ]
  @ (Array.to_list (Array.sub vars 0 (min 4 (Array.length vars)))
    |> List.map (fun v -> q "pointsto" [ ("var", SJson.Int v) ]))
  @ [ q "count" [ ("rel", SJson.String "PointsTo.pt") ] ]

let transport_responses ~sock ~tcp_port ~http_port queries =
  let module C = Jedd_server.Client in
  let module H = Jedd_serve.Http in
  let over connect is_http =
    let c = connect () in
    let rs =
      List.map
        (fun query ->
          let r =
            if is_http then
              H.client_request ~ic:c.C.ic ~oc:c.C.oc query
            else C.request c query
          in
          SJson.to_string r)
        queries
    in
    C.close c;
    rs
  in
  [
    ("unix", over (fun () -> C.connect ~retries:10 sock) false);
    ( "tcp",
      over (fun () -> C.connect_tcp ~retries:10 "127.0.0.1" tcp_port) false );
    ( "http",
      over (fun () -> C.connect_tcp ~retries:10 "127.0.0.1" http_port) true );
  ]

let serve_cache_stats ~sock =
  let module C = Jedd_server.Client in
  let c = C.connect ~retries:10 sock in
  let resp = C.request c (SJson.Obj [ ("verb", SJson.String "stats") ]) in
  C.close c;
  let field name =
    match SJson.member "result_cache" resp with
    | Some rc -> (
      match SJson.member name rc with Some (SJson.Int n) -> n | _ -> 0)
    | None -> 0
  in
  (field "hits", field "misses")

(* The standing load: mostly pointsto over a rotating var set (so the
   result cache sees repeats), one count in four. *)
let serve_load ~transport ~clients ~requests vars =
  let mk _i j =
    if j mod 4 = 3 then
      SJson.Obj
        [
          ("verb", SJson.String "count");
          ("rel", SJson.String "PointsTo.pt");
        ]
    else
      SJson.Obj
        [
          ("verb", SJson.String "pointsto");
          ("var", SJson.Int vars.(j mod Array.length vars));
        ]
  in
  Loadgen.run
    {
      Loadgen.transport;
      clients;
      requests_per_client = requests;
      rate_per_client = None;
      make_request = mk;
    }

let lat_ms r q = float_of_int (Loadgen.percentile_us r q) /. 1000.0

let require_clean what (r : Loadgen.result) =
  if r.Loadgen.transport_errors > 0 || r.Loadgen.app_errors > 0 then begin
    Printf.eprintf
      "%s: load run had errors (transport %d, application %d, ok %d/%d)\n"
      what r.Loadgen.transport_errors r.Loadgen.app_errors r.Loadgen.ok
      r.Loadgen.sent;
    exit 1
  end

(* Small-scale CI smoke: a warm frozen snapshot, 2 workers, 50
   concurrent TCP clients.  Zero errors and a warm result cache or the
   job fails. *)
let bench_load () =
  let bench_name, snap_path, hash, vars = serve_fixture () in
  let clients = 50 and requests = 20 in
  let result, hits, misses =
    with_server ~workers:2 ~frozen:true snap_path hash
      (fun ~sock ~tcp_port ~http_port ->
        ignore http_port;
        let r =
          serve_load
            ~transport:(Loadgen.Tcp ("127.0.0.1", tcp_port))
            ~clients ~requests vars
        in
        let hits, misses = serve_cache_stats ~sock in
        (r, hits, misses))
  in
  Sys.remove snap_path;
  require_clean "load-smoke" result;
  if hits = 0 then begin
    Printf.eprintf
      "load-smoke: result cache never hit (misses %d) under a repeating \
       workload\n"
      misses;
    exit 1
  end;
  Printf.printf
    "load smoke: OK (%s, %d clients x %d reqs, %d ok, %.0f req/s, p50 \
     %.2fms p99 %.2fms, cache %d/%d hits)\n"
    bench_name clients requests result.Loadgen.ok
    (Loadgen.throughput_rps result)
    (lat_ms result 0.50) (lat_ms result 0.99) hits (hits + misses)

let bench_json7 ?(path = "BENCH_pr7.json") () =
  let bench_name, snap_path, hash, vars = serve_fixture () in
  let cpus = host_cpus () in
  let clients = 32 and requests = 50 in
  let queries = differential_queries vars in
  let reference = ref None in
  let differential_ok = ref true in
  let sweep =
    List.map
      (fun workers ->
        with_server ~workers ~frozen:true snap_path hash
          (fun ~sock ~tcp_port ~http_port ->
            (* differential first, on an idle server *)
            let by_transport =
              transport_responses ~sock ~tcp_port ~http_port queries
            in
            (match !reference with
            | None ->
              reference := Some (List.assoc "unix" by_transport)
            | Some _ -> ());
            let expect = Option.get !reference in
            List.iter
              (fun (tname, rs) ->
                if rs <> expect then begin
                  Printf.eprintf
                    "json7: %s responses at %d workers differ from the \
                     single-worker reference\n"
                    tname workers;
                  differential_ok := false
                end)
              by_transport;
            let r =
              serve_load
                ~transport:(Loadgen.Tcp ("127.0.0.1", tcp_port))
                ~clients ~requests vars
            in
            require_clean (Printf.sprintf "json7 (workers=%d)" workers) r;
            let hits, misses = serve_cache_stats ~sock in
            (workers, r, hits, misses)))
      par_jobs_curve
  in
  if not !differential_ok then exit 1;
  (* frozen vs refcounted, single worker, same load over TCP *)
  let mode_run frozen =
    with_server ~workers:1 ~frozen snap_path hash
      (fun ~sock ~tcp_port ~http_port ->
        ignore sock;
        ignore http_port;
        let r =
          serve_load
            ~transport:(Loadgen.Tcp ("127.0.0.1", tcp_port))
            ~clients ~requests vars
        in
        require_clean
          (Printf.sprintf "json7 (%s)"
             (if frozen then "frozen" else "refcounted"))
          r;
        r)
  in
  let frozen_r = mode_run true in
  let refc_r = mode_run false in
  (* one HTTP datapoint so BENCH_pr7 covers that front end too *)
  let http_r =
    with_server ~workers:2 ~frozen:true snap_path hash
      (fun ~sock ~tcp_port ~http_port ->
        ignore sock;
        ignore tcp_port;
        let r =
          serve_load
            ~transport:(Loadgen.Http_t ("127.0.0.1", http_port))
            ~clients:16 ~requests:25 vars
        in
        require_clean "json7 (http)" r;
        r)
  in
  Sys.remove snap_path;
  let tput (r : Loadgen.result) = Loadgen.throughput_rps r in
  let run_json (r : Loadgen.result) =
    Printf.sprintf
      "\"ok\": %d, \"sent\": %d, \"wall_s\": %.3f, \"throughput_rps\": \
       %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f"
      r.Loadgen.ok r.Loadgen.sent r.Loadgen.wall_s (tput r)
      (lat_ms r 0.50) (lat_ms r 0.95) (lat_ms r 0.99)
  in
  let base_tput =
    match sweep with (1, r, _, _) :: _ -> tput r | _ -> 0.0
  in
  let tput_at w =
    match List.find_opt (fun (w', _, _, _) -> w' = w) sweep with
    | Some (_, r, _, _) -> tput r
    | None -> 0.0
  in
  let scale4 = if base_tput > 0.0 then tput_at 4 /. base_tput else 0.0 in
  let gate_asserted = cpus >= 4 in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v7\",\n";
  out "  \"benchmark\": %S,\n" bench_name;
  out "  \"host_cpus\": %d,\n" cpus;
  out "  \"snapshot_hash\": %S,\n" hash;
  out "  \"clients\": %d,\n" clients;
  out "  \"requests_per_client\": %d,\n" requests;
  out "  \"worker_sweep\": [\n";
  List.iteri
    (fun i (workers, r, hits, misses) ->
      let total = hits + misses in
      out
        "    {\"workers\": %d, %s, \"cache_hits\": %d, \"cache_misses\": \
         %d, \"cache_hit_rate\": %.3f}%s\n"
        workers (run_json r) hits misses
        (if total = 0 then 0.0 else float_of_int hits /. float_of_int total)
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  out "  ],\n";
  out "  \"frozen_single_worker\": {%s},\n" (run_json frozen_r);
  out "  \"refcounted_single_worker\": {%s},\n" (run_json refc_r);
  out "  \"frozen_vs_refcounted_speedup\": %.3f,\n"
    (if tput refc_r > 0.0 then tput frozen_r /. tput refc_r else 0.0);
  out "  \"http_two_workers\": {%s},\n" (run_json http_r);
  out "  \"differential_identical\": true,\n";
  out
    "  \"scaling_gate\": {\"required_at_4_workers\": 1.2, \"asserted\": \
     %b, \"throughput_ratio_at_4\": %.3f}\n"
    gate_asserted scale4;
  out "}\n";
  (* more workers only help with real cores under them *)
  if gate_asserted && scale4 < 1.2 then begin
    Printf.eprintf
      "json7: throughput at 4 workers is %.2fx of 1 worker on a %d-cpu \
       host (bar: 1.2x)\n"
      scale4 cpus;
    exit 1
  end;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* BENCH_pr8.json: incremental re-solve cost per edit (PR 8)          *)
(* ----------------------------------------------------------------- *)

(* A live session absorbs a stream of program edits; after every edit
   the incremental fixed point must be tuple-for-tuple the one a
   from-scratch solve of the edited program reaches.  The bench
   measures the cost per edit against that from-scratch solve at 1, 5
   and 25 accumulated edits, and the size of the differential snapshot
   (Delta.diff against the previous generation) after each edit.

   Gate (javac workload): a single added call site must re-solve at
   least 10x faster than from scratch, with identical relations. *)

let bench_json8 ?(path = "BENCH_pr8.json") () =
  let module Live = Jedd_analyses.Live in
  let module Edit = Jedd_incr.Edit in
  let module Snapshot = Jedd_store.Snapshot in
  let module Delta = Jedd_store.Delta in
  let bench_name =
    match Sys.getenv_opt "JEDD_BENCH_WORKLOAD" with
    | Some n -> n
    | None -> "javac"
  in
  let p0 = Workload.generate (Workload.profile_named bench_name) in
  (* the live session: compile with headroom, load, cold solve *)
  let session, cold_s = wall (fun () -> Live.create p0) in
  let scratch_solve p =
    let (inst, r), secs =
      wall (fun () -> Suite.run_combined ~headroom:true p)
    in
    ignore inst;
    (r, secs)
  in
  let snap_bytes () =
    Snapshot.to_bytes (Suite.snapshot (Live.inst session))
  in
  let prev_bytes = ref (snap_bytes ()) in
  let rng = Random.State.make [| 0x8edd; 8 |] in
  (* edit #1 is the gate's single new call site; the rest of the
     stream is deterministic random additions *)
  let next_edit i =
    if i = 1 then Edit.Add_callsite { recv = 0; signature = 0; in_method = 0 }
    else Edit.random ~removals:false rng (Live.program session)
  in
  let batch_points = [ 1; 5; 25 ] in
  let max_edits = List.fold_left max 0 batch_points in
  let per_edit = ref [] in
  let batches = ref [] in
  let cum_incr_s = ref 0.0 in
  let all_identical = ref true in
  for i = 1 to max_edits do
    let e = next_edit i in
    let stats, secs = wall (fun () -> Live.update session e) in
    cum_incr_s := !cum_incr_s +. secs;
    (* differential snapshot against the previous generation *)
    let bytes = snap_bytes () in
    let d =
      Delta.diff
        ~meta:[ ("edit", Edit.describe e) ]
        ~base:!prev_bytes ~next:bytes ()
    in
    let delta_bytes = String.length (Delta.to_bytes d) in
    prev_bytes := bytes;
    per_edit :=
      ( i,
        Edit.describe e,
        Live.mode_to_string stats.Live.mode,
        secs,
        List.length d.Delta.changed,
        delta_bytes,
        String.length bytes )
      :: !per_edit;
    if List.mem i batch_points then begin
      let r_scratch, scratch_s = scratch_solve (Live.program session) in
      let identical = Live.results session = r_scratch in
      if not identical then all_identical := false;
      batches := (i, !cum_incr_s, scratch_s, identical) :: !batches
    end
  done;
  let per_edit = List.rev !per_edit in
  let batches = List.rev !batches in
  let ms s = s *. 1000.0 in
  (* gate: the single-callsite batch point *)
  let gate_edits, gate_incr_s, gate_scratch_s, gate_identical =
    match batches with b :: _ -> b | [] -> (0, 1.0, 0.0, false)
  in
  ignore gate_edits;
  let gate_speedup =
    if gate_incr_s > 0.0 then gate_scratch_s /. gate_incr_s else 0.0
  in
  let gate_asserted = bench_name = "javac" in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v8\",\n";
  out "  \"benchmark\": %S,\n" bench_name;
  out "  \"host_cpus\": %d,\n" (host_cpus ());
  out "  \"cold_solve_ms\": %.1f,\n" (ms cold_s);
  out "  \"edits\": [\n";
  List.iteri
    (fun k (i, desc, mode, secs, changed, dbytes, fbytes) ->
      out
        "    {\"edit\": %d, \"op\": %S, \"mode\": %S, \"incr_ms\": %.2f, \
         \"delta_changed_relations\": %d, \"delta_bytes\": %d, \
         \"full_snapshot_bytes\": %d, \"delta_fraction\": %.4f}%s\n"
        i desc mode (ms secs) changed dbytes fbytes
        (float_of_int dbytes /. float_of_int fbytes)
        (if k = List.length per_edit - 1 then "" else ","))
    per_edit;
  out "  ],\n";
  out "  \"batches\": [\n";
  List.iteri
    (fun k (n, incr_s, scratch_s, identical) ->
      let per = ms incr_s /. float_of_int n in
      out
        "    {\"edits\": %d, \"incr_total_ms\": %.1f, \
         \"incr_per_edit_ms\": %.1f, \"scratch_ms\": %.1f, \
         \"speedup_per_edit\": %.2f, \"identical\": %b}%s\n"
        n (ms incr_s) per (ms scratch_s)
        (if per > 0.0 then ms scratch_s /. per else 0.0)
        identical
        (if k = List.length batches - 1 then "" else ","))
    batches;
  out "  ],\n";
  out
    "  \"single_edit_gate\": {\"required_speedup\": 10.0, \"asserted\": \
     %b, \"speedup\": %.2f, \"identical\": %b}\n"
    gate_asserted gate_speedup gate_identical;
  out "}\n";
  if not !all_identical then begin
    Printf.eprintf
      "json8: incremental relations diverged from a from-scratch solve\n";
    exit 1
  end;
  if gate_asserted && gate_speedup < 10.0 then begin
    Printf.eprintf
      "json8: single-callsite re-solve is %.2fx from-scratch on %s (bar: \
       10x)\n"
      gate_speedup bench_name;
    exit 1
  end;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* BENCH_pr9.json: the static cost model (PR 9).  Half 1: the        *)
(* weighted domain assignment must leave the five analyses' results  *)
(* bit-identical on javac while the generated programs execute       *)
(* strictly fewer dynamic replaces than the unweighted solve.        *)
(* Half 2: the hybrid backend on the capped points-to workload of    *)
(* json3 — must complete via its per-operation extmem fallback,      *)
(* reproduce the in-core relation, and beat pure extmem wall-clock.  *)
(* ----------------------------------------------------------------- *)

type cost_run = {
  cr_config : string;
  cr_seconds : float;  (* the five analyses, excluding compilation *)
  cr_solve_seconds : float;  (* the SAT solve(s) *)
  cr_static_replaces : int;  (* IReplace instructions emitted *)
  cr_static_weight : int;  (* emitted sites weighted by Freq — the
                              objective the weighted solve minimises *)
  cr_dyn_replaces : int;  (* replace executions during the pipeline *)
  cr_replace_millis : float;  (* wall time inside those replaces *)
  cr_results : Suite.results;
  cr_weighted : E.weighted_stats option;
}

(* The five analyses exactly as [Suite.run_all] compiles them — one
   Jedd program per analysis, the form the paper benchmarks — with a
   profiler hook on every universe counting executed replaces. *)
let cost_suite_run ~config ~optimize profile =
  let module U = Jedd_relation.Universe in
  let p = Workload.generate profile in
  Printf.eprintf "[cost] %s: compiling + running the five analyses...\n%!"
    config;
  let dyn = ref 0 and rep_ms = ref 0.0 in
  let static_replaces = ref 0 in
  let static_weight = ref 0 in
  let solve_seconds = ref 0.0 in
  let weighted = ref None in
  let stage name run =
    let compiled = Suite.compile_one ~optimize p name in
    let _, prov = Jedd_lang.Lower.lower_program_ex compiled in
    let freq = Jedd_cost.Freq.analyze compiled.Driver.tprog in
    let sites = prov.Jedd_lang.Lower.pp_replaces in
    static_replaces := !static_replaces + List.length sites;
    static_weight :=
      !static_weight
      + List.fold_left
          (fun a (s : Jedd_lang.Lower.replace_site) ->
            a + Jedd_cost.Freq.weight freq s.Jedd_lang.Lower.rs_eid)
          0 sites;
    solve_seconds :=
      !solve_seconds +. compiled.Driver.assignment.E.stats.E.solve_seconds;
    (match (compiled.Driver.weighted_stats, !weighted) with
    | Some w, None -> weighted := Some w
    | Some w, Some acc ->
      weighted :=
        Some
          {
            E.w_sites = acc.E.w_sites + w.E.w_sites;
            w_kept = acc.E.w_kept + w.E.w_kept;
            w_broken = acc.E.w_broken + w.E.w_broken;
            w_cost = acc.E.w_cost + w.E.w_cost;
            w_solves = acc.E.w_solves + w.E.w_solves;
          }
    | None, _ -> ());
    let inst = Driver.instantiate ~node_capacity:(1 lsl 18) compiled in
    let u = Interp.universe inst in
    U.set_profile_level u U.Counts;
    U.set_on_op u
      (Some
         (fun (e : U.op_event) ->
           if e.U.op = "replace" then begin
             incr dyn;
             rep_ms := !rep_ms +. e.U.millis
           end));
    let r = run inst in
    U.set_on_op u None;
    U.set_profile_level u U.Off;
    U.cleanup u;
    r
  in
  let t0 = Unix.gettimeofday () in
  let subtypes =
    stage "Hierarchy" (fun inst ->
        Jedd_analyses.Hierarchy.load_facts inst p;
        Jedd_analyses.Hierarchy.run inst;
        Jedd_analyses.Hierarchy.results inst)
  in
  let pt =
    stage "Points-to Analysis" (fun inst ->
        Jedd_analyses.Pointsto.load_facts inst p;
        Jedd_analyses.Pointsto.run inst;
        Jedd_analyses.Pointsto.results inst)
  in
  let resolved, call_edges =
    stage "Virtual Call Resolution" (fun inst ->
        Jedd_analyses.Vcall.load_facts inst p;
        Jedd_analyses.Vcall.run inst (Suite.receiver_types p pt);
        (Jedd_analyses.Vcall.results inst, Jedd_analyses.Vcall.call_edges inst))
  in
  let reachable =
    stage "Call Graph" (fun inst ->
        Jedd_analyses.Callgraph.load_facts inst p ~call_edges;
        Jedd_analyses.Callgraph.run inst;
        Jedd_analyses.Callgraph.results inst)
  in
  let side_effects =
    stage "Side-effect Analysis" (fun inst ->
        Jedd_analyses.Sideeffect.load_facts inst p ~pt ~call_edges;
        Jedd_analyses.Sideeffect.run inst;
        Jedd_analyses.Sideeffect.results inst)
  in
  let secs = Unix.gettimeofday () -. t0 in
  (match !weighted with
  | Some w ->
    Printf.eprintf
      "[cost]   weighted objective: kept %d of %d sites (broken cost %d, %d \
       solves)\n%!"
      w.E.w_kept w.E.w_sites w.E.w_cost w.E.w_solves
  | None -> ());
  Printf.eprintf
    "[cost]   ... %d static sites (weight %d), %d dynamic replaces (%.1f \
     ms) in %.2fs\n%!"
    !static_replaces !static_weight !dyn !rep_ms secs;
  {
    cr_config = config;
    cr_seconds = secs;
    cr_solve_seconds = !solve_seconds;
    cr_static_replaces = !static_replaces;
    cr_static_weight = !static_weight;
    cr_dyn_replaces = !dyn;
    cr_replace_millis = !rep_ms;
    cr_results =
      { Suite.subtypes; pt; resolved; call_edges; reachable; side_effects };
    cr_weighted = !weighted;
  }

let cost_benchmark_profile () =
  match Sys.getenv_opt "JEDD_COST_BENCH" with
  | Some "tiny" -> Workload.tiny
  | Some s -> Workload.profile_named s
  | None -> Workload.profile_named "javac"

(* The loop-hoist microbenchmark: 'x' flows from a P1-pinned field and
   is consumed three times inside a fixed-point loop at P2.  Both
   placements of the unavoidable copy satisfy the constraints — the
   unweighted solver's tie-break lands it inside the loop (one replace
   per use per iteration), the weighted objective hoists it to the
   initializer (one replace, ever).  This is the §3.3.2 "minimize the
   number of attributes represented in different physical domains"
   refinement made loop-aware. *)
let hoist_src =
  "domain D 8;\n\
   physdom P1;\n\
   physdom P2;\n\
   attribute a : D;\n\
   class Hoist {\n\
  \  <a:P1> src;\n\
  \  <a:P2> acc;\n\
  \  public void run() {\n\
  \    src = 1B;\n\
  \    <a> x = src;\n\
  \    <a> old;\n\
  \    do {\n\
  \      old = acc;\n\
  \      acc = acc | x;\n\
  \      acc = acc | x;\n\
  \      acc = acc | x;\n\
  \    } while (old != acc);\n\
  \    print acc;\n\
  \  }\n\
   }\n"

(* Compile and execute the microbenchmark, counting replace executions. *)
let hoist_run ~optimize =
  let module U = Jedd_relation.Universe in
  let weight =
    if optimize then
      Some
        (fun tprog ->
          let f = Jedd_cost.Freq.analyze tprog in
          Jedd_cost.Freq.weight f)
    else None
  in
  let compiled =
    match Driver.compile ?weight [ ("hoist.jedd", hoist_src) ] with
    | Ok c -> c
    | Error e -> failwith (Driver.error_to_string e)
  in
  let _, prov = Jedd_lang.Lower.lower_program_ex compiled in
  let static_sites = List.length prov.Jedd_lang.Lower.pp_replaces in
  let inst = Driver.instantiate compiled in
  let u = Interp.universe inst in
  let dyn = ref 0 in
  U.set_profile_level u U.Counts;
  U.set_on_op u
    (Some (fun (e : U.op_event) -> if e.U.op = "replace" then incr dyn));
  let ir = Jedd_lang.Ir_interp.create compiled inst in
  Jedd_lang.Ir_interp.set_print_hook ir (fun _ -> ());
  ignore (Jedd_lang.Ir_interp.call ir "Hoist.run" []);
  U.set_on_op u None;
  U.cleanup u;
  (static_sites, !dyn)

let bench_json9 ?(path = "BENCH_pr9.json") () =
  let profile = cost_benchmark_profile () in
  let base = cost_suite_run ~config:"unweighted" ~optimize:false profile in
  let opt = cost_suite_run ~config:"weighted" ~optimize:true profile in
  let identical =
    base.cr_results.Suite.subtypes = opt.cr_results.Suite.subtypes
    && base.cr_results.Suite.pt = opt.cr_results.Suite.pt
    && base.cr_results.Suite.resolved = opt.cr_results.Suite.resolved
    && base.cr_results.Suite.call_edges = opt.cr_results.Suite.call_edges
    && base.cr_results.Suite.reachable = opt.cr_results.Suite.reachable
    && base.cr_results.Suite.side_effects = opt.cr_results.Suite.side_effects
  in
  (* the loop-hoist microbenchmark, executed on both assignments *)
  let hoist_base_sites, hoist_base_dyn = hoist_run ~optimize:false in
  let hoist_opt_sites, hoist_opt_dyn = hoist_run ~optimize:true in
  Printf.eprintf
    "[cost] hoist microbenchmark: %d -> %d dynamic replaces (%d/%d static \
     sites)\n%!"
    hoist_base_dyn hoist_opt_dyn hoist_base_sites hoist_opt_sites;
  (* half 2: the json3 capped workload, plus a hybrid run under the
     same node cap and extmem budgets *)
  let bk_profile = backend_benchmark_profile () in
  let bk_name, node_limit, _, incore, capped, extmem = backend_runs () in
  let hybrid =
    backend_pointsto ~config:"hybrid/capped" ~backend:`Hybrid ~node_limit
      ~pq_bytes:16384 ~mem_nodes:2048 bk_profile
  in
  let bk_runs = [ incore; capped; extmem; hybrid ] in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v9\",\n";
  out "  \"benchmark\": %S,\n" profile.Workload.name;
  out "  \"weighted_assignment\": {\n";
  out "    \"runs\": [\n";
  List.iteri
    (fun i r ->
      out
        "      {\"config\": %S, \"seconds\": %.4f, \"solve_seconds\": %.4f, \
         \"static_replace_sites\": %d, \"static_replace_weight\": %d, \
         \"dynamic_replaces\": %d, \"replace_millis\": %.1f}%s\n"
        r.cr_config r.cr_seconds r.cr_solve_seconds r.cr_static_replaces
        r.cr_static_weight r.cr_dyn_replaces r.cr_replace_millis
        (if i = 1 then "" else ","))
    [ base; opt ];
  out "    ],\n";
  (match opt.cr_weighted with
  | Some w ->
    out
      "    \"weighted\": {\"sites\": %d, \"kept\": %d, \"broken\": %d, \
       \"cost\": %d, \"solves\": %d},\n"
      w.E.w_sites w.E.w_kept w.E.w_broken w.E.w_cost w.E.w_solves
  | None -> out "    \"weighted\": null,\n");
  out "    \"identical_results\": %b,\n" identical;
  out "    \"dynamic_replaces_removed\": %d,\n"
    (base.cr_dyn_replaces - opt.cr_dyn_replaces);
  out
    "    \"hoist_microbenchmark\": {\"unweighted_dynamic_replaces\": %d, \
     \"weighted_dynamic_replaces\": %d, \"unweighted_static_sites\": %d, \
     \"weighted_static_sites\": %d}\n"
    hoist_base_dyn hoist_opt_dyn hoist_base_sites hoist_opt_sites;
  out "  },\n";
  out "  \"hybrid_backend\": {\n";
  out "    \"benchmark\": %S,\n" bk_name;
  out "    \"node_limit\": %d,\n" node_limit;
  out "    \"runs\": [\n";
  List.iteri
    (fun i r ->
      out
        "      {\"config\": %S, \"completed\": %b, \"seconds\": %.4f, \
         \"tuples\": %d, \"peak_nodes\": %d, \"spill_runs\": %d, \
         \"spilled_bytes\": %d, \"io_millis\": %.1f}%s\n"
        r.bk_config r.bk_completed r.bk_seconds r.bk_tuples r.bk_peak_nodes
        r.bk_spill_runs r.bk_spilled_bytes r.bk_io_millis
        (if i = List.length bk_runs - 1 then "" else ","))
    bk_runs;
  out "    ],\n";
  out "    \"capped_incore_aborted\": %b,\n" (not capped.bk_completed);
  out "    \"hybrid_completed\": %b,\n" hybrid.bk_completed;
  out "    \"hybrid_matches_incore\": %b,\n"
    (hybrid.bk_completed && hybrid.bk_tuples = incore.bk_tuples);
  out "    \"hybrid_speedup_vs_extmem\": %.2f\n"
    (if hybrid.bk_seconds > 0.0 then extmem.bk_seconds /. hybrid.bk_seconds
     else 0.0);
  out "  }\n";
  out "}\n";
  (* gates *)
  if not identical then begin
    Printf.eprintf
      "json9: weighted assignment changed the analysis results\n";
    exit 1
  end;
  if opt.cr_dyn_replaces > base.cr_dyn_replaces then begin
    Printf.eprintf
      "json9: weighted assignment increased dynamic replaces (%d -> %d)\n"
      base.cr_dyn_replaces opt.cr_dyn_replaces;
    exit 1
  end;
  if opt.cr_static_weight > base.cr_static_weight then begin
    Printf.eprintf
      "json9: weighted assignment worsened the replace-weight objective \
       (%d -> %d)\n"
      base.cr_static_weight opt.cr_static_weight;
    exit 1
  end;
  if hoist_opt_dyn >= hoist_base_dyn then begin
    Printf.eprintf
      "json9: weighted assignment failed to hoist the loop copy (%d -> %d \
       dynamic replaces)\n"
      hoist_base_dyn hoist_opt_dyn;
    exit 1
  end;
  if not hybrid.bk_completed then begin
    Printf.eprintf
      "json9: hybrid backend aborted on the capped workload that extmem \
       completes\n";
    exit 1
  end;
  if hybrid.bk_tuples <> incore.bk_tuples then begin
    Printf.eprintf "json9: hybrid run did not reproduce the in-core result\n";
    exit 1
  end;
  if extmem.bk_completed && hybrid.bk_seconds >= extmem.bk_seconds then begin
    Printf.eprintf
      "json9: hybrid (%.2fs) did not beat pure extmem (%.2fs) on the capped \
       workload\n"
      hybrid.bk_seconds extmem.bk_seconds;
    exit 1
  end;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

(* ----------------------------------------------------------------- *)
(* PR 10: terminal-valued (mtbdd) backend and weighted analyses       *)
(* ----------------------------------------------------------------- *)

(* Weighted points-to on the mtbdd backend against the boolean in-core
   suite plus an explicit recount of its tuples.  Two gates make this a
   correctness benchmark as much as a timing one: the 0/1 support of
   the mtbdd fixed point must be tuple-identical to the in-core result,
   and the counting projection must equal the recount. *)
let bench_json10 ?(path = "BENCH_pr10.json") () =
  let module W = Jedd_analyses.Weighted in
  let module R = Jedd_relation.Relation in
  let module U = Jedd_relation.Universe in
  let profile =
    match Sys.getenv_opt "JEDD_MTBDD_BENCH" with
    | Some "tiny" -> Workload.tiny
    | Some s -> Workload.profile_named s
    | None -> Workload.profile_named "javac"
  in
  let p = Workload.generate profile in
  (* boolean baseline: in-core suite, then recount its tuples by var *)
  let ri, bool_secs = wall (fun () -> Suite.run_all ~backend:`Incore p) in
  let recount, recount_secs =
    wall (fun () -> W.recount_by_first ri.Suite.pt)
  in
  (* weighted run: same points-to class, terminal-valued universe *)
  let ac, weighted_secs = wall (fun () -> W.run_alloc_counts p) in
  let pt_tuples = R.tuples ac.W.ac_pt in
  let projection_identical = pt_tuples = ri.Suite.pt in
  let counts = W.alloc_counts_list ac in
  let counts_match = counts = recount in
  let max_count = List.fold_left (fun m (_, c) -> max m c) 0 counts in
  let mu = Interp.universe ac.W.ac_inst in
  let mt_hits, mt_misses, mt_terminals, mt_live, mt_peak =
    match Jedd_relation.Backend.mt_store (U.backend mu) with
    | None -> (0, 0, 0, 0, 0)
    | Some st ->
      let module Mt = Jedd_mtbdd.Mtbdd in
      let h, ms, _ = Mt.cache_totals st in
      (h, ms, Mt.distinct_terminals st, Mt.live_nodes st, Mt.peak_nodes st)
  in
  (* call-frequency weighted call graph on the resolved edges *)
  let cf, freq_secs =
    wall (fun () -> W.run_call_freqs p ~call_edges:ri.Suite.call_edges)
  in
  let edges = W.edge_freqs_list cf in
  let hot = W.method_hotness_list cf in
  let max_hot = List.fold_left (fun m (_, h) -> max m h) 0 hot in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"jedd-bench-v10\",\n";
  out "  \"benchmark\": %S,\n" profile.Workload.name;
  out "  \"weighted_pointsto\": {\n";
  (* the boolean baseline runs the full five-analysis suite (the
     frequency half needs its call edges); the mtbdd timing is the
     points-to class alone, so the two are context, not a ratio *)
  out "    \"boolean_suite_seconds\": %.4f,\n" bool_secs;
  out "    \"recount_seconds\": %.4f,\n" recount_secs;
  out "    \"mtbdd_seconds\": %.4f,\n" weighted_secs;
  out "    \"pt_tuples\": %d,\n" (List.length pt_tuples);
  out "    \"vars_counted\": %d,\n" (List.length counts);
  out "    \"max_alloc_count\": %d,\n" max_count;
  out "    \"projection_identical\": %b,\n" projection_identical;
  out "    \"counts_match_recount\": %b\n" counts_match;
  out "  },\n";
  out "  \"call_frequencies\": {\n";
  out "    \"seconds\": %.4f,\n" freq_secs;
  out "    \"reachable_edges\": %d,\n" (List.length edges);
  out "    \"methods_ranked\": %d,\n" (List.length hot);
  out "    \"max_hotness\": %d\n" max_hot;
  out "  },\n";
  out "  \"mtbdd\": {\n";
  out "    \"live_nodes\": %d,\n" mt_live;
  out "    \"peak_nodes\": %d,\n" mt_peak;
  out "    \"distinct_terminals\": %d,\n" mt_terminals;
  out "    \"cache_hits\": %d,\n" mt_hits;
  out "    \"cache_misses\": %d\n" mt_misses;
  out "  }\n";
  out "}\n";
  (* gates *)
  if not projection_identical then begin
    Printf.eprintf
      "json10: mtbdd points-to support differs from the in-core result\n";
    exit 1
  end;
  if not counts_match then begin
    Printf.eprintf
      "json10: counting projection disagrees with the boolean recount\n";
    exit 1
  end;
  if edges = [] || hot = [] then begin
    Printf.eprintf "json10: call-frequency analysis produced no edges\n";
    exit 1
  end;
  U.cleanup mu;
  U.cleanup (Interp.universe cf.W.cf_inst);
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "wrote %s\n" path

let smoke () =
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      Printf.printf "SMOKE FAIL: %s\n" name;
      incr failures
    end
  in
  let m, f, f2, g, g3, by', bz, p_in, p_out, cube_shared, cube_w =
    kernel_fixture ()
  in
  ignore f2;
  let fused0, fb0 = Rep.fused_stats () in
  check "join: fused = band after replace"
    (Rep.relprod_replace m f g p_in M.one
    = Ops.band m f (Rep.replace m g p_in));
  check "compose: fused = relprod after replace"
    (Rep.relprod_replace m f g p_in cube_shared
    = Quant.relprod m f (Rep.replace m g p_in) cube_shared);
  check "replace_exist (project+coerce): fused = replace after exist"
    (Rep.replace_exist m g3 p_in cube_w
    = Rep.replace m (Quant.exist m g3 cube_w) p_in);
  check "replace_exist (up-moving perm): fused = replace after exist"
    (Rep.replace_exist m f p_out cube_shared
    = Rep.replace m (Quant.exist m f cube_shared) p_out);
  let fused1, _ = Rep.fused_stats () in
  check "block moves take the single-recursion path" (fused1 > fused0);
  (* a distant swap is not order-preserving: must fall back, same answer *)
  let l1 = (Fdd.levels m by').(0) and l2 = (Fdd.levels m bz).(0) in
  let p_swap = Rep.make_perm m [ (l1, l2); (l2, l1) ] in
  check "non-monotone perm: fallback agrees with pipeline"
    (Rep.relprod_replace m f g p_swap M.one
    = Ops.band m f (Rep.replace m g p_swap));
  let _, fb1 = Rep.fused_stats () in
  check "non-monotone perm takes the fallback path" (fb1 > fb0);
  (* end-to-end: tiny points-to, hand-coded vs the Jedd runtime (whose
     join/compose now run on the fused kernels) *)
  let p = Workload.generate Workload.tiny in
  let b = Baseline.create p in
  Baseline.solve b;
  let hand_tuples = List.length (Baseline.pt_tuples b) in
  Baseline.destroy b;
  let compiled = Suite.compile_one p "Points-to Analysis" in
  let inst = Driver.instantiate compiled in
  Jedd_analyses.Pointsto.load_facts inst p;
  Jedd_analyses.Pointsto.run inst;
  check "tiny points-to: jedd = hand-coded"
    (List.length (Jedd_analyses.Pointsto.results inst) = hand_tuples);
  (* reorder: same fixed point from a deliberately bad declaration order
     with the optimizer on, and the manager survives a structural audit *)
  let src_bad =
    Jedd_analyses.Common.preamble ~physdom_order:bad_physdom_order p
    ^ Jedd_analyses.Pointsto.source
  in
  let compiled_bad =
    match Driver.compile [ ("PointsTo.jedd", src_bad) ] with
    | Ok c -> c
    | Error e -> failwith (Driver.error_to_string e)
  in
  let inst_off = Driver.instantiate compiled_bad in
  Jedd_analyses.Pointsto.load_facts inst_off p;
  Jedd_analyses.Pointsto.run inst_off;
  let inst_on = Driver.instantiate compiled_bad in
  Jedd_analyses.Pointsto.load_facts inst_on p;
  Jedd_analyses.Pointsto.run ~reorder:true inst_on;
  check "bad order, reorder on: same fixed point"
    (Jedd_analyses.Pointsto.results inst_on
    = Jedd_analyses.Pointsto.results inst_off);
  let m_on = Jedd_relation.Universe.manager (Interp.universe inst_on) in
  check "reorder ran at least one pass" (M.reorder_count m_on > 0);
  (match M.check_invariants m_on with
  | [] -> ()
  | errs ->
    List.iter (fun e -> Printf.printf "SMOKE FAIL: invariant: %s\n" e) errs;
    incr failures);
  if !failures > 0 then exit 1 else print_endline "bench smoke: OK"

(* ----------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --backend=incore|extmem routes every scenario through the chosen
     relation backend (via JEDD_BACKEND, which Universe.create reads
     when no explicit backend is passed). *)
  let cmds =
    List.filter
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--backend" ->
          let v = String.sub a (i + 1) (String.length a - i - 1) in
          (if List.mem v Jedd_relation.Backend.known_backends then
             Unix.putenv "JEDD_BACKEND" v
           else begin
             Printf.eprintf "unknown backend %S (%s)\n" v
               (String.concat "|" Jedd_relation.Backend.known_backends);
             exit 2
           end);
          false
        | _ -> true)
      args
  in
  let run name f = if cmds = [] || List.mem name cmds then f () in
  run "table1" table1;
  run "table2" table2;
  run "fig7" fig7;
  run "compactness" compactness;
  run "ablation-compose" ablation_compose;
  run "ablation-replace" ablation_replace;
  run "ablation-order" ablation_order;
  run "ablation-memory" ablation_memory;
  run "ablation-zdd" ablation_zdd;
  run "reorder" reorder_bench;
  if List.mem "backend" cmds then backend_bench ();
  if List.mem "parallel" cmds then parallel_bench ();
  if List.mem "bechamel" cmds then bechamel ();
  if List.mem "json" cmds then bench_json ();
  if List.mem "json2" cmds then bench_json2 ();
  if List.mem "json3" cmds then bench_json3 ();
  if List.mem "json5" cmds then bench_json5 ();
  if List.mem "json6" cmds then bench_json6 ();
  if List.mem "json7" cmds then bench_json7 ();
  if List.mem "json8" cmds then bench_json8 ();
  (* cost-smoke runs json9 on the tiny profiles; JEDD_BENCH_JSON9_PATH
     keeps those numbers out of the committed default-profile JSON *)
  if List.mem "json9" cmds then
    bench_json9 ?path:(Sys.getenv_opt "JEDD_BENCH_JSON9_PATH") ();
  (* mtbdd-smoke runs json10 on the tiny profile via JEDD_MTBDD_BENCH;
     JEDD_BENCH_JSON10_PATH keeps its numbers out of the committed JSON *)
  if List.mem "json10" cmds then
    bench_json10 ?path:(Sys.getenv_opt "JEDD_BENCH_JSON10_PATH") ();
  if List.mem "load" cmds then bench_load ();
  if List.mem "smoke" cmds then smoke ()
