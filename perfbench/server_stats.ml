(* Reading a jeddd "stats" reply: per-verb eval times, the result
   cache, and the BDD counters of the served universe. *)

module Json = Jedd_server.Json

let num = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

let field path v =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some v) path

let query_verbs = [ "pointsto"; "member"; "resolve"; "tuples"; "count" ]

(* Server-side eval time of a verb (mean over the current generation's
   requests), in ms. *)
let eval_mean_ms stats verb = num (field [ "latency"; verb; "mean_ms" ] stats)
let eval_count stats verb = num (field [ "latency"; verb; "count" ] stats)

(* Request-weighted mean eval time over [verbs]. *)
let eval_mean_over stats verbs =
  let n = List.fold_left (fun a v -> a +. eval_count stats v) 0. verbs in
  let t =
    List.fold_left (fun a v -> a +. (eval_count stats v *. eval_mean_ms stats v)) 0. verbs
  in
  Stats.ratio t n

let metrics stats =
  let cache k = num (field [ "result_cache"; k ] stats) in
  let hits = cache "hits" and misses = cache "misses" in
  List.map
    (fun v -> ("server.eval_ms." ^ v, eval_mean_ms stats v, "ms"))
    query_verbs
  @ [
      ("server.result_cache_hit_rate", Stats.ratio hits (hits +. misses), "ratio");
      ("server.result_cache_evictions", cache "evictions", "count");
    ]
  @ Pipeline.bdd_metrics
      ~stat:(fun k -> num (field [ "bdd"; k ] stats))
      ~tag_rates:[]
