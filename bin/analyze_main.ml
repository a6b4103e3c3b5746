(* jedd-analyze: run the five interrelated whole-program analyses (§5,
   Figure 2) over a generated workload and report result sizes. *)

open Cmdliner
module Workload = Jedd_minijava.Workload
module Program = Jedd_minijava.Program
module Reference = Jedd_minijava.Reference
module Suite = Jedd_analyses.Suite

let backend_of_string s =
  try Jedd_relation.Backend.kind_of_string s
  with Invalid_argument msg ->
    Printf.eprintf "jedd-analyze: %s\n" msg;
    exit 2

(* --jobs N, then JEDD_JOBS, then the recommended domain count. *)
let resolve_jobs jobs =
  let parse s =
    try Jedd_bdd.Par.jobs_of_string s
    with Invalid_argument msg ->
      Printf.eprintf "jedd-analyze: %s\n" msg;
      exit 2
  in
  match (jobs, Sys.getenv_opt "JEDD_JOBS") with
  | Some s, _ -> parse s
  | None, Some s -> parse s
  | None, None -> Jedd_bdd.Par.default_jobs ()

let lint_suite p =
  (* lint each of the Figure 2 analyses as jeddc --lint would *)
  let worst = ref 0 in
  List.iter
    (fun (name, _) ->
      let compiled = Suite.compile_one p name in
      let report = Jedd_lint.Driver.lint compiled in
      Printf.printf "== %s ==\n%s\n" name (Jedd_lint.Driver.to_text report);
      worst := max !worst (Jedd_lint.Driver.exit_code report))
    Suite.analyses;
  exit !worst

(* Print the Table 1-style result-size summary shared by the run_all
   and run_combined paths. *)
let print_results (r : Suite.results) =
  Printf.printf "  Hierarchy            : %d subtype pairs\n"
    (List.length r.Suite.subtypes);
  Printf.printf "  Points-to Analysis   : %d (var, heap) pairs\n"
    (List.length r.Suite.pt);
  Printf.printf "  Virtual Call Resol.  : %d resolved targets\n"
    (List.length r.Suite.resolved);
  Printf.printf "  Call Graph           : %d reachable methods\n"
    (List.length r.Suite.reachable);
  Printf.printf "  Side-effect Analysis : %d (method, heap, field) triples\n"
    (List.length r.Suite.side_effects)

(* Each result relation against the set-based reference analyses,
   tuple for tuple.  The Jedd subtype closure is strict; the reference
   one is reflexive. *)
let verify_results p (r : Suite.results) =
  let pairs s = List.map (fun (a, b) -> [ a; b ]) (Reference.IPS.elements s) in
  let ref_pt, _ = Reference.points_to p in
  let ref_targets = Reference.call_targets p ref_pt in
  let same expected got = expected = List.sort compare got in
  [
    ( "subtype pairs",
      same
        (List.filter (function [ a; b ] -> a <> b | _ -> true)
           (pairs (Reference.hierarchy p)))
        r.Suite.subtypes );
    ("points-to", same (pairs ref_pt) r.Suite.pt);
    ("call edges", same (pairs ref_targets) r.Suite.call_edges);
    ( "reachable methods",
      same
        (List.map (fun m -> [ m ])
           (Reference.IS.elements (Reference.reachable p ref_targets)))
        r.Suite.reachable );
    ( "side effects",
      same
        (List.map
           (fun (m, h, f) -> [ m; h; f ])
           (Reference.ITS.elements
              (Reference.side_effects p ref_pt ref_targets)))
        r.Suite.side_effects );
  ]

let run benchmark file verify reorder backend node_limit lint save_snapshot
    serve optimize jobs =
  let jobs = resolve_jobs jobs in
  let name, p =
    if file <> "" then (file, Jedd_minijava.Frontend.load_file file)
    else
      let profile =
        if benchmark = "tiny" then Workload.tiny
        else Workload.profile_named benchmark
      in
      (profile.Workload.name, Workload.generate profile)
  in
  if lint then lint_suite p;
  let backend =
    match (backend, Sys.getenv_opt "JEDD_BACKEND") with
    | Some b, _ -> Some (backend_of_string b)
    | None, Some b -> Some (backend_of_string b)
    | None, None -> None
  in
  (match backend with
  | Some `Extmem -> Format.printf "backend: extmem (out-of-core streaming)@."
  | Some `Hybrid ->
    Format.printf
      "backend: hybrid (per-operation incore/extmem dispatch from predicted \
       node counts)@."
  | Some `Mtbdd ->
    Format.printf
      "backend: mtbdd (terminal-valued BDDs; boolean analyses run as \
       0/1-weighted relations)@."
  | _ -> ());
  Format.printf "workload %s: %a@." name Program.pp_stats p;
  (* Stage-level parallelism lives in [Suite.run_combined]; the extmem
     and hybrid backends are single-domain, so parallel requests fall
     back there. *)
  let parallel =
    jobs > 1 && (backend = None || backend = Some `Incore)
  in
  if parallel then Format.printf "parallel: %d domains@." jobs;
  let t0 = Unix.gettimeofday () in
  let needs_instance = save_snapshot <> None || serve <> None in
  let oom () =
    Printf.eprintf
      "jedd-analyze: analysis exceeded the in-core memory budget (%s \
       nodes); retry with --backend=extmem to stream BDDs through \
       bounded memory, or raise --node-limit.\n"
      (match node_limit with Some n -> string_of_int n | None -> "?");
    exit 3
  in
  let inst, r =
    (* snapshotting and serving need the live combined instance; the
       plain report path keeps the historical per-analysis universes *)
    try
      if needs_instance || parallel then
        let inst, r =
          Suite.run_combined ?backend ?node_limit ~reorder ~jobs ~optimize p
        in
        (Some inst, r)
      else (None, Suite.run_all ?backend ?node_limit ~reorder ~optimize p)
    with Jedd_bdd.Manager.Out_of_nodes -> oom ()
  in
  Printf.printf "pipeline completed in %.2f s\n" (Unix.gettimeofday () -. t0);
  print_results r;
  let snap =
    Option.map
      (fun inst -> Suite.snapshot ~meta:[ ("workload", name) ] inst)
      inst
  in
  (match (save_snapshot, snap) with
  | Some path, Some snap ->
    Jedd_store.Snapshot.save_file path snap;
    Printf.printf "snapshot saved to %s (%d relations)\n" path
      (List.length snap.Jedd_store.Snapshot.relations)
  | _ -> ());
  (match (serve, snap) with
  | Some socket_path, Some snap ->
    let module Serve = Jedd_serve.Serve in
    let universe_hash =
      Digest.to_hex (Digest.string (Jedd_store.Snapshot.to_bytes snap))
    in
    let server =
      Serve.create
        ~config:{ Serve.default_config with unix_path = Some socket_path }
        ~universe_hash snap
    in
    Printf.printf "jeddd: serving %s on %s (send {\"verb\":\"shutdown\"} to stop)\n%!"
      name socket_path;
    Serve.run server
  | _ -> ());
  if verify then begin
    let failed =
      List.filter_map
        (fun (what, ok) -> if ok then None else Some what)
        (verify_results p r)
    in
    Printf.printf "verification against reference implementations: %s\n"
      (if failed = [] then "PASS"
       else "FAIL (" ^ String.concat ", " failed ^ ")");
    if failed <> [] then exit 1
  end

let benchmark_arg =
  Arg.(
    value
    & opt string "compress"
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Workload: tiny, javac, compress, javac-13, sablecc, jedit")

let file_arg =
  Arg.(
    value & opt string ""
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:"Analyse a hand-written .mjava program instead of a workload")

let verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc:"Check against reference analyses")

let reorder_arg =
  Arg.(
    value & flag
    & info [ "reorder" ]
        ~doc:
          "Enable dynamic variable-order optimization: a sifting pass over \
           the loaded facts plus an auto trigger at BDD safe points during \
           the points-to and call-graph solves")

let backend_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ] ~docv:"NAME"
        ~doc:
          "Relation backend: $(b,incore) (default; hash-consed shared node \
           table), $(b,extmem) (out-of-core streaming BDDs: levelized \
           node files + priority-queue sweeps under the \
           JEDD_EXTMEM_PQ_BYTES / JEDD_EXTMEM_MEM_NODES byte budgets), \
           $(b,hybrid) (per-operation incore/extmem dispatch from \
           predicted node counts), or $(b,mtbdd) (terminal-valued BDDs: \
           boolean analyses run unchanged as 0/1-weighted relations and \
           support counting projections).  Falls back to the JEDD_BACKEND \
           environment variable.")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"N"
        ~doc:
          "Cap each in-core BDD node table at N nodes; exceeding the cap \
           aborts the pipeline with a clean message suggesting \
           --backend=extmem")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the jeddlint checkers over each of the five analyses instead \
           of executing them; exits with the worst per-analysis lint code")

let save_snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-snapshot" ] ~docv:"FILE"
        ~doc:
          "After the pipeline completes, persist the combined analysis \
           universe (checksummed binary snapshot, both backends) to FILE; \
           jeddd can warm-start from it without recomputing")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCKET"
        ~doc:
          "After the pipeline completes, serve the results over a Unix \
           socket speaking the jeddd line/JSON protocol (query with jeddq)")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize-domains" ]
        ~doc:
          "Solve each physical-domain assignment with the weighted \
           objective: the static cost analysis weights every candidate \
           replace site by loop nesting and call-graph frequency, and the \
           SAT solve minimises the summed weight of the copies it keeps.  \
           Results are bit-identical; dynamic replace executions drop.")

let jobs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the BDD engine and the analysis stages on $(docv) domains \
           (1..64).  Falls back to the JEDD_JOBS environment variable, then \
           to the machine's recommended domain count.  Results are \
           bit-identical to --jobs=1; the extmem backend is single-domain \
           and ignores this.")

let cmd =
  Cmd.v
    (Cmd.info "jedd-analyze" ~version:Jedd_relation.Version.banner
       ~doc:"Run the five BDD-based whole-program analyses of Figure 2")
    Term.(
      const run $ benchmark_arg $ file_arg $ verify_arg $ reorder_arg
      $ backend_arg $ node_limit_arg $ lint_arg $ save_snapshot_arg
      $ serve_arg $ optimize_arg $ jobs_arg)

let () = exit (Cmd.eval cmd)
