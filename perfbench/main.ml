(* perfbench: the repository's benchmark of its three user paths.

     main.exe --workload analyze|serve|edit --seed N --seconds S
              --trace 0|1 --jeddd PATH --work DIR [--commit ID]

   Prints a provenance line, every metric of the run under its user-path
   name, and as the last line one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  The traced run also writes its
   spans to DIR as <workload>-seed<N>.spans.json and .trace.json (Chrome
   trace_event format).  Exits 1 if any correctness check failed. *)

module Json = Jedd_server.Json
open Common

(* Every per-layer metric, in report order.  A workload that does not
   load a layer reports its metrics as 0 (see BENCHMARK.json). *)
let layer_names =
  let ms n = (n, "ms") and count n = (n, "count") in
  [ ms "jedd.parse_ms"; ms "jedd.typecheck_ms"; ms "jedd.constraints_ms";
    ms "sat.assign_ms"; count "jedd.constraint_nodes" ]
  @ List.concat_map
      (fun s ->
        [ ms ("analyses." ^ s ^ ".load_ms"); ms ("analyses." ^ s ^ ".solve_ms");
          ms ("analyses." ^ s ^ ".solve_self_ms") ])
      Pipeline.stages
  @ List.concat_map
      (fun op -> [ count ("relation." ^ op ^ ".count"); ms ("relation." ^ op ^ ".ms") ])
      Pipeline.relation_ops
  @ [ ("bdd.cache_hit_rate", "ratio"); count "bdd.cache_evictions"; count "bdd.gc_count";
      ms "bdd.gc_ms"; count "bdd.grow_count"; ms "bdd.grow_ms"; count "bdd.peak_nodes";
      count "bdd.live_nodes"; count "bdd.par.stw_sections"; count "bdd.par.barrier_waits";
      count "bdd.par.chunk_refills"; count "bdd.par.domains" ]
  @ List.map (fun t -> ("bdd.cache_hit_rate." ^ t, "ratio")) Pipeline.cache_tags
  @ [ ms "store.snapshot_load_ms"; ("store.snapshot_bytes", "bytes") ]
  @ List.map (fun v -> ms ("server.eval_ms." ^ v)) Server_stats.query_verbs
  @ [ ("server.result_cache_hit_rate", "ratio"); count "server.result_cache_evictions";
      ms "serve.outside_eval_ms"; ms "live.solve_p50_ms"; ms "live.solve_p90_ms";
      count "live.mode.incremental"; count "live.mode.partial"; count "live.mode.rebuild";
      count "live.mode.recompile"; ms "serve.swap_ms"; ms "serve.read_wait_ms";
      ("trace.traced_s", "s"); ("trace.untraced_s", "s"); ("trace.overhead_s", "s") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload analyze|serve|edit --seed N --seconds S --trace 0|1 \
     --jeddd PATH --work DIR [--commit ID]";
  exit 2

(* The share of CPU time the hypervisor gave to other guests, from the
   first line of /proc/stat: (all jiffies, stolen jiffies), or None off
   Linux.  On a shared virtual machine this moves every timing, so each
   result records it. *)
let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
      let n = List.filter_map int_of_string_opt fields in
      if List.length n >= 8 then Some (List.fold_left ( + ) 0 n, List.nth n 7) else None
    | _ -> None)

(* The CPUs this process may run on, as /proc/self/status lists them:
   run.py pins every workload to one. *)
let cpus_allowed () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Json.Null
  | ic ->
    let key = "Cpus_allowed_list:" in
    let n = String.length key in
    let rec scan () =
      match input_line ic with
      | line when String.length line > n && String.sub line 0 n = key ->
        Json.String (String.trim (String.sub line n (String.length line - n)))
      | _ -> scan ()
      | exception End_of_file -> Json.Null
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let metrics_json l =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       l)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  let trace = int "trace" = 1 in
  let work = get "work" in
  let ctx =
    {
      seed = int "seed";
      seconds = float_of_int (int "seconds");
      trace;
      spans = Spans.create ~enabled:trace;
      jeddd = get "jeddd";
      work;
      (* JEDD_JOBS, then the recommended domain count, as the CLIs do *)
      jobs =
        (match Sys.getenv_opt "JEDD_JOBS" with
        | Some s -> Jedd_bdd.Par.jobs_of_string s
        | None -> Jedd_bdd.Par.default_jobs ());
    }
  in
  let jiffies0 = cpu_jiffies () in
  let o =
    match workload with
    | "analyze" -> Wl_analyze.run ctx
    | "serve" -> Wl_serve.run ctx
    | "edit" -> Wl_edit.run ctx
    | _ -> usage ()
  in
  let layers =
    List.map
      (fun (n, u) ->
        match List.find_opt (fun (m, _, _) -> m = n) o.layers with
        | Some m -> m
        | None -> (n, 0., u))
      layer_names
  in
  let steal =
    match (jiffies0, cpu_jiffies ()) with
    | Some (t0, s0), Some (t1, s1) ->
      Json.Float (Stats.ratio (float_of_int (s1 - s0)) (float_of_int (t1 - t0)))
    | _ -> Json.Null
  in
  let correct = o.failed = 0 in
  let provenance =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int ctx.seed);
        ("seconds", Json.Int (int "seconds"));
        ("trace", Json.Bool trace);
        ("host_cpus", Json.Int (Domain.recommended_domain_count ()));
        ("cpus_allowed", cpus_allowed ());
        ("host_steal_frac", steal);
        ("jobs", Json.Int ctx.jobs);
        ("commit", Json.String (Option.value (List.assoc_opt "commit" opts) ~default:"unknown"));
        ("ocaml", Json.String Sys.ocaml_version);
        ("program", Json.String (Format.asprintf "%a" P.pp_stats o.program));
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
      ]
  in
  let base = Filename.concat work (Printf.sprintf "%s-seed%d" workload ctx.seed) in
  Spans.finish ctx.spans;
  if trace then Spans.write ctx.spans ~base;
  Spans.write_file
    (base ^ (if trace then ".traced" else "") ^ ".result.json")
    (Json.to_string
       (Json.Obj
          [
            ("provenance", provenance);
            ("paths", metrics_json o.paths);
            ("end_to_end", metrics_json o.e2e);
            ("per_layer", metrics_json (if trace then layers else []));
            ( "samples",
              Json.Obj
                (List.map
                   (fun (n, l) -> (n, Json.List (List.map (fun v -> Json.Float v) l)))
                   o.samples) );
            ("notes", Json.List (List.map (fun s -> Json.String s) o.notes));
          ]));
  Printf.printf "provenance %s\n" (Json.to_string provenance);
  List.iter (fun n -> Printf.printf "FAIL %s\n" n) o.notes;
  let show (n, v, u) = Printf.printf "  %-34s %14.4f %s\n" n v u in
  Printf.printf "%s (user path):\n" workload;
  List.iter show o.paths;
  Printf.printf "  %-34s %14.6f %s\n" "fail_frac"
    (Stats.ratio (float_of_int o.failed) (float_of_int o.attempted))
    "ratio";
  if trace then begin
    Printf.printf "%s per layer (traced run):\n" workload;
    List.iter show layers
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", metrics_json (if trace then layers else o.e2e));
          ]));
  exit (if correct then 0 else 1)
