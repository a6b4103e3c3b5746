(* The jeddd request protocol: newline-delimited JSON objects.

   Request:  {"verb": "...", "id": any?, "timeout_ms": int?, ...args}
   Response: {"id": <echoed>, "ok": true, ...result}
           | {"id": <echoed>, "ok": false, "error": "..."}

   Verbs:
     ping                                   liveness probe
     version                                package version + backends
     relations                              catalogue of named relations
     count     rel                          tuple count
     member    rel tuple:[o..]              tuple membership
     tuples    rel select? project? limit?  extraction with select/project
     pointsto  var:int                      heaps of PointsTo.pt at var
     resolve   callsite:int                 targets from VirtualCalls.resolved
     stats                                  server + BDD-layer counters
     reorder                                sift the variable order now
     batch     requests:[req..]             evaluate in order, one round trip
     sleep     ms:int                       hold the worker (timeout testing)
     shutdown                               stop the server after replying
     update    edit:{op,...}                apply a program edit and swap in
                                            the re-solved generation (only
                                            on jeddd --live; handled by the
                                            Jedd_serve front end, not here)

   Relation names are snapshot names ("PointsTo.pt"); an unambiguous
   "pt" works too (Snapshot.find_relation).  This module is the pure
   evaluator over a loaded snapshot; sockets, queueing, and timeouts
   live in Jedd_serve.Serve. *)

module R = Jedd_relation.Relation
module Schema = Jedd_relation.Schema
module Attr = Jedd_relation.Attribute
module Dom = Jedd_relation.Domain
module Snapshot = Jedd_store.Snapshot

type world = {
  snap : Snapshot.t;
  extra_stats : unit -> (string * Json.t) list;
      (** Server-side counters, appended to the [stats] payload. *)
}

type outcome = Reply of Json.t | Quit of Json.t

exception Bad_request of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_request s)) fmt

(* -- helpers ------------------------------------------------------------ *)

let get_rel w req =
  match Json.member "rel" req with
  | Some (Json.String name) -> (
    match Snapshot.find_relation w.snap name with
    | Some r -> r
    | None -> bad "unknown relation %S" name)
  | Some _ -> bad "\"rel\" must be a string"
  | None -> bad "missing \"rel\""

let named_rel w name =
  match Snapshot.find_relation w.snap name with
  | Some r -> r
  | None -> bad "relation %S is not in this snapshot" name

let attr_by_name r name =
  let entries = Schema.entries (R.schema r) in
  match
    List.find_opt (fun (e : Schema.entry) -> Attr.name e.attr = name) entries
  with
  | Some e -> e.attr
  | None ->
    bad "relation has no attribute %S (has: %s)" name
      (String.concat ", "
         (List.map (fun (e : Schema.entry) -> Attr.name e.attr) entries))

let int_field req key =
  match Json.member key req with
  | Some (Json.Int v) -> v
  | Some _ -> bad "%S must be an integer" key
  | None -> bad "missing %S" key

let int_list = function
  | Json.List l ->
    List.map
      (function Json.Int v -> v | _ -> bad "tuple elements must be integers")
      l
  | _ -> bad "expected an array of integers"

(* select bindings: {"attr": obj, ...} *)
let bindings_of r = function
  | Json.Obj kvs ->
    List.map
      (fun (name, v) ->
        match v with
        | Json.Int obj -> (attr_by_name r name, obj)
        | _ -> bad "select value for %S must be an integer" name)
      kvs
  | _ -> bad "\"select\" must be an object of attribute -> object"

let schema_attrs r =
  List.map (fun (e : Schema.entry) -> e.attr) (Schema.entries (R.schema r))

(* Apply select then project, releasing every intermediate eagerly.
   Returns a relation the caller must release unless it is [r] itself. *)
let refine r ~select ~project =
  let selected =
    match select with None -> r | Some bindings -> R.select r bindings
  in
  match project with
  | None -> selected
  | Some keep ->
    let away =
      List.filter
        (fun a -> not (List.exists (Attr.equal a) keep))
        (schema_attrs selected)
    in
    if away = [] then selected
    else begin
      let projected = R.project_away selected away in
      if selected != r then R.release selected;
      projected
    end

let rows_of ?limit r =
  let limit = Option.value limit ~default:max_int in
  if limit < 0 then bad "\"limit\" must be non-negative";
  let acc = ref [] in
  let n = ref 0 in
  (try
     R.iter_tuples r (fun t ->
         if !n >= limit then raise Exit;
         incr n;
         acc := Json.List (List.map (fun v -> Json.Int v) (Array.to_list t)) :: !acc)
   with Exit -> ());
  List.rev !acc

let attr_names r =
  List.map
    (fun (e : Schema.entry) -> Json.String (Attr.name e.attr))
    (Schema.entries (R.schema r))

(* -- verbs -------------------------------------------------------------- *)

let do_relations w =
  Json.Obj
    [
      ( "relations",
        Json.List
          (List.map
             (fun (name, r) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ( "attrs",
                     Json.List
                       (List.map
                          (fun (e : Schema.entry) ->
                            let d = Attr.domain e.attr in
                            Json.Obj
                              [
                                ("name", Json.String (Attr.name e.attr));
                                ("domain", Json.String (Dom.name d));
                                ("size", Json.Int (Dom.size d));
                              ])
                          (Schema.entries (R.schema r))) );
                   ("tuples", Json.Int (R.size r));
                 ])
             w.snap.Snapshot.relations) );
    ]

let do_member w req =
  let r = get_rel w req in
  let tuple =
    match Json.member "tuple" req with
    | Some v -> int_list v
    | None -> bad "missing \"tuple\""
  in
  let entries = Schema.entries (R.schema r) in
  if List.length tuple <> List.length entries then
    bad "tuple arity %d does not match relation arity %d" (List.length tuple)
      (List.length entries);
  let bindings = List.map2 (fun (e : Schema.entry) v -> (e.attr, v)) entries tuple in
  let sel = R.select r bindings in
  let present = not (R.is_empty sel) in
  R.release sel;
  Json.Obj [ ("member", Json.Bool present) ]

let do_tuples w req =
  let r = get_rel w req in
  let select = Option.map (bindings_of r) (Json.member "select" req) in
  let project =
    match Json.member "project" req with
    | None -> None
    | Some (Json.List l) ->
      Some
        (List.map
           (function
             | Json.String name -> attr_by_name r name
             | _ -> bad "\"project\" entries must be attribute names")
           l)
    | Some _ -> bad "\"project\" must be an array of attribute names"
  in
  let limit =
    match Json.member "limit" req with
    | None -> None
    | Some (Json.Int n) -> Some n
    | Some _ -> bad "\"limit\" must be an integer"
  in
  let refined = refine r ~select ~project in
  let total = R.size refined in
  let rows = rows_of ?limit refined in
  let attrs = attr_names refined in
  if refined != r then R.release refined;
  Json.Obj
    [
      ("attrs", Json.List attrs);
      ("tuples", Json.List rows);
      ("total", Json.Int total);
      ("truncated", Json.Bool (List.length rows < total));
    ]

let do_pointsto w req =
  let var = int_field req "var" in
  let pt = named_rel w "PointsTo.pt" in
  let heap_attr = attr_by_name pt "heap" in
  let refined =
    refine pt ~select:(Some [ (attr_by_name pt "var", var) ])
      ~project:(Some [ heap_attr ])
  in
  let heaps = ref [] in
  R.iter_tuples refined (fun t -> heaps := Json.Int t.(0) :: !heaps);
  if refined != pt then R.release refined;
  Json.Obj [ ("var", Json.Int var); ("heaps", Json.List (List.rev !heaps)) ]

let do_resolve w req =
  let cs = int_field req "callsite" in
  let resolved = named_rel w "VirtualCalls.resolved" in
  let refined =
    refine resolved
      ~select:(Some [ (attr_by_name resolved "callsite", cs) ])
      ~project:None
  in
  let entries = Schema.entries (R.schema refined) in
  let targets = ref [] in
  R.iter_tuples refined (fun t ->
      let row =
        List.map2
          (fun (e : Schema.entry) v -> (Attr.name e.attr, Json.Int v))
          entries (Array.to_list t)
      in
      targets :=
        Json.Obj (List.filter (fun (k, _) -> k <> "callsite") row) :: !targets);
  if refined != resolved then R.release refined;
  Json.Obj
    [ ("callsite", Json.Int cs); ("targets", Json.List (List.rev !targets)) ]

let do_stats w =
  let bdd =
    List.map
      (fun (k, v) ->
        ( k,
          if Float.is_integer v then Json.Int (int_of_float v)
          else Json.Float v ))
      (Jedd_profiler.Recorder.runtime_stats w.snap.Snapshot.u)
  in
  Json.Obj
    (w.extra_stats ()
    @ [
        ("relations", Json.Int (List.length w.snap.Snapshot.relations));
        ("bdd", Json.Obj bdd);
      ])

(* -- dispatch ------------------------------------------------------------ *)

let ok id fields = Json.Obj ((("id", id) :: ("ok", Json.Bool true) :: fields))

let err id msg =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false); ("error", Json.String msg) ]

let request_id req = Option.value (Json.member "id" req) ~default:Json.Null

let rec eval w req : outcome =
  let id = request_id req in
  let verb =
    match Json.member "verb" req with
    | Some (Json.String v) -> v
    | _ -> ""
  in
  try
    match verb with
    | "" -> Reply (err id "missing \"verb\"")
    | "ping" -> Reply (ok id [ ("pong", Json.Bool true) ])
    | "version" ->
      Reply
        (ok id
           [
             ("version", Json.String Jedd_relation.Version.version);
             ( "backends",
               Json.List
                 (List.map
                    (fun b -> Json.String b)
                    Jedd_relation.Backend.known_backends) );
           ])
    | "relations" -> Reply (ok id (obj_fields (do_relations w)))
    | "count" ->
      let r = get_rel w req in
      Reply (ok id [ ("tuples", Json.Int (R.size r)) ])
    | "member" -> Reply (ok id (obj_fields (do_member w req)))
    | "tuples" -> Reply (ok id (obj_fields (do_tuples w req)))
    | "pointsto" -> Reply (ok id (obj_fields (do_pointsto w req)))
    | "resolve" -> Reply (ok id (obj_fields (do_resolve w req)))
    | "stats" -> Reply (ok id (obj_fields (do_stats w)))
    | "reorder" ->
      (* the protocol's one mutating verb; on a frozen (read-only
         serving) universe it fails cleanly with Manager.Frozen *)
      Jedd_relation.Universe.reorder ~trigger:"server" w.snap.Snapshot.u;
      Reply (ok id [ ("reordered", Json.Bool true) ])
    | "batch" -> (
      match Json.member "requests" req with
      | Some (Json.List reqs) ->
        (* a shutdown inside a batch stops the server after the whole
           batch's responses are flushed *)
        let quit = ref false in
        let responses =
          List.map
            (fun sub ->
              match eval w sub with
              | Reply r -> r
              | Quit r ->
                quit := true;
                r)
            reqs
        in
        let body = ok id [ ("responses", Json.List responses) ] in
        if !quit then Quit body else Reply body
      | _ -> Reply (err id "batch: missing \"requests\" array"))
    | "sleep" ->
      (* occupies a worker for real, like a long BDD op would; exists
         so timeout behaviour is testable deterministically *)
      let ms = min (int_field req "ms") 10_000 in
      Unix.sleepf (float_of_int ms /. 1000.);
      Reply (ok id [ ("slept_ms", Json.Int ms) ])
    | "shutdown" -> Quit (ok id [ ("stopping", Json.Bool true) ])
    | v -> Reply (err id (Printf.sprintf "unknown verb %S" v))
  with
  | Bad_request msg -> Reply (err id msg)
  | R.Type_error msg -> Reply (err id msg)
  | Invalid_argument msg -> Reply (err id msg)
  | Jedd_bdd.Manager.Frozen msg -> Reply (err id msg)

and obj_fields = function Json.Obj kvs -> kvs | v -> [ ("result", v) ]
