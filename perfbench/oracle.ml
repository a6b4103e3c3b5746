(* Indexed ground truth for the five analyses.

   Jedd_minijava.Reference is the repository's specification of the
   analyses, but its set-and-scan loops take minutes on a javac-sized
   program.  This module computes the same relations with bitsets and
   adjacency indexes, and [cross_check] compares it with Reference on
   small programs at the start of every run, so the javac results are
   checked against an oracle that is itself checked against Reference. *)

module P = Jedd_minijava.Program
module Ref = Jedd_minijava.Reference

(* -- bitsets over [0, n) ------------------------------------------------ *)

let bits = 60

module Bits = struct
  type t = int array

  let create n = Array.make ((n + bits - 1) / bits) 0
  let mem s i = s.(i / bits) land (1 lsl (i mod bits)) <> 0
  let add s i = s.(i / bits) <- s.(i / bits) lor (1 lsl (i mod bits))

  (* [dst |= src]; true when [dst] grew *)
  let union_into dst src =
    let grew = ref false in
    for w = 0 to Array.length src - 1 do
      let d = dst.(w) in
      let u = d lor src.(w) in
      if u <> d then begin
        dst.(w) <- u;
        grew := true
      end
    done;
    !grew

  let iter f s =
    Array.iteri
      (fun w word ->
        if word <> 0 then
          for b = 0 to bits - 1 do
            if word land (1 lsl b) <> 0 then f ((w * bits) + b)
          done)
      s

  let elements s =
    let l = ref [] in
    iter (fun i -> l := i :: !l) s;
    List.rev !l
end

type t = {
  subtypes : (int * int) list;  (** strict (sub, super), sorted *)
  pt : Bits.t array;  (** var -> heaps *)
  targets : int list array;  (** call site id -> target methods, sorted *)
  resolved : (int * int * int * int, unit) Hashtbl.t;
      (** (call site, signature, declaring class, method) *)
  reachable : bool array;  (** method -> reachable *)
  effects : Bits.t array;  (** method -> heap * n_fields + field *)
  n_fields : int;
}

let hierarchy (p : P.t) =
  Ref.IPS.elements (Ref.hierarchy p) |> List.filter (fun (a, b) -> a <> b)

let points_to (p : P.t) =
  let nh = max 1 p.P.n_heap and nf = max 1 p.P.n_fields in
  let pt = Array.init (max 1 p.P.n_vars) (fun _ -> Bits.create nh) in
  let fpt = Array.init (nh * nf) (fun _ -> Bits.create nh) in
  List.iter (fun (v, h) -> Bits.add pt.(v) h) p.P.allocs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (src, dst) ->
        if Bits.union_into pt.(dst) pt.(src) then changed := true)
      p.P.assigns;
    List.iter
      (fun (src, base, f) ->
        Bits.iter
          (fun hb ->
            if Bits.union_into fpt.((hb * nf) + f) pt.(src) then
              changed := true)
          pt.(base))
      p.P.stores;
    List.iter
      (fun (base, f, dst) ->
        Bits.iter
          (fun hb ->
            if Bits.union_into pt.(dst) fpt.((hb * nf) + f) then
              changed := true)
          pt.(base))
      p.P.loads
  done;
  pt

let compute (p : P.t) : t =
  let pt = points_to p in
  let n_sites = List.fold_left (fun a (c : P.call_site) -> max a (c.P.cs_id + 1)) 0 p.P.calls in
  let targets = Array.make n_sites [] in
  let resolve = Hashtbl.create 256 in
  let resolve_virtual rectype signature =
    match Hashtbl.find_opt resolve (rectype, signature) with
    | Some r -> r
    | None ->
      let r = P.resolve_virtual p ~rectype ~signature in
      Hashtbl.add resolve (rectype, signature) r;
      r
  in
  let resolved = Hashtbl.create 1024 in
  List.iter
    (fun (cs : P.call_site) ->
      let ms = ref [] in
      Bits.iter
        (fun h ->
          let t = p.P.heap_type.(h) in
          match resolve_virtual t cs.P.cs_sig with
          | Some m ->
            ms := m :: !ms;
            Hashtbl.replace resolved (cs.P.cs_id, cs.P.cs_sig, p.P.method_class.(m), m) ()
          | None -> ())
        pt.(cs.P.cs_recv);
      targets.(cs.P.cs_id) <- List.sort_uniq compare !ms)
    p.P.calls;
  (* call edges grouped by enclosing method *)
  let sites_in = Array.make (max 1 p.P.n_methods) [] in
  List.iter
    (fun (cs : P.call_site) ->
      sites_in.(cs.P.cs_in_method) <- cs.P.cs_id :: sites_in.(cs.P.cs_in_method))
    p.P.calls;
  let reach = Array.make (max 1 p.P.n_methods) false in
  let rec visit m =
    if not reach.(m) then begin
      reach.(m) <- true;
      List.iter (fun cs -> List.iter visit targets.(cs)) sites_in.(m)
    end
  in
  List.iter visit p.P.entry_methods;
  (* side effects: direct writes, closed over every call edge (reachable
     or not, as Reference does) *)
  let nh = max 1 p.P.n_heap and nf = max 1 p.P.n_fields in
  let eff = Array.init (max 1 p.P.n_methods) (fun _ -> Bits.create (nh * nf)) in
  List.iter
    (fun (_src, base, f) ->
      let m = p.P.var_method.(base) in
      Bits.iter (fun hb -> Bits.add eff.(m) ((hb * nf) + f)) pt.(base))
    p.P.stores;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (cs : P.call_site) ->
        List.iter
          (fun callee ->
            if Bits.union_into eff.(cs.P.cs_in_method) eff.(callee) then
              changed := true)
          targets.(cs.P.cs_id))
      p.P.calls
  done;
  {
    subtypes = hierarchy p;
    pt;
    targets;
    resolved;
    reachable = reach;
    effects = eff;
    n_fields = nf;
  }

let pt_pairs o =
  List.concat
    (List.mapi
       (fun v hs -> List.map (fun h -> (v, h)) (Bits.elements hs))
       (Array.to_list o.pt))

let call_edges o =
  List.concat
    (List.mapi
       (fun cs ms -> List.map (fun m -> (cs, m)) ms)
       (Array.to_list o.targets))

let reachable o =
  List.filter (fun m -> o.reachable.(m)) (List.init (Array.length o.reachable) Fun.id)

let side_effects o =
  List.concat
    (List.mapi
       (fun m eff ->
         List.map (fun k -> (m, k / o.n_fields, k mod o.n_fields)) (Bits.elements eff))
       (Array.to_list o.effects))

let count_bits a =
  let pop w =
    let rec go w n = if w = 0 then n else go (w land (w - 1)) (n + 1) in
    go w 0
  in
  Array.fold_left (fun n s -> Array.fold_left (fun n w -> n + pop w) n s) 0 a

let pt_count o = count_bits o.pt
let effects_count o = count_bits o.effects
let reachable_count o = Array.fold_left (fun n b -> if b then n + 1 else n) 0 o.reachable

let heaps_of o v = if v >= 0 && v < Array.length o.pt then Bits.elements o.pt.(v) else []

let in_range a i = i >= 0 && i < Array.length a

let member o v h = in_range o.pt v && h >= 0 && h < Array.length o.pt.(v) * bits && Bits.mem o.pt.(v) h

let targets_of o cs = if in_range o.targets cs then o.targets.(cs) else []

(* -- comparisons -------------------------------------------------------- *)

(* A result relation equals the oracle's when its tuples are distinct,
   each is in the oracle, and there are as many as the oracle has.
   Membership tests keep the javac check from materialising the
   oracle's 500k side-effect triples. *)
let same_set tuples ~size ~mem =
  let seen = Hashtbl.create (size + 16) in
  List.for_all
    (fun t ->
      mem t
      && (not (Hashtbl.mem seen t))
      &&
      (Hashtbl.add seen t ();
       true))
    tuples
  && Hashtbl.length seen = size

(* Names of the result relations of [r] that differ from the oracle,
   tuple for tuple; [] when all six agree. *)
let mismatches o (r : Jedd_analyses.Suite.results) =
  let module S = Jedd_analyses.Suite in
  let n_edges = Array.fold_left (fun n l -> n + List.length l) 0 o.targets in
  let checks =
    [
      ( "subtypes",
        fun () -> List.sort compare r.S.subtypes = List.map (fun (a, b) -> [ a; b ]) o.subtypes );
      ( "pt",
        fun () ->
          same_set r.S.pt ~size:(count_bits o.pt) ~mem:(function
            | [ v; h ] -> member o v h
            | _ -> false) );
      ( "resolved",
        fun () ->
          same_set r.S.resolved ~size:(Hashtbl.length o.resolved) ~mem:(function
            | [ cs; sg; t; m ] -> Hashtbl.mem o.resolved (cs, sg, t, m)
            | _ -> false) );
      ( "call_edges",
        fun () ->
          same_set r.S.call_edges ~size:n_edges ~mem:(function
            | [ cs; m ] -> List.mem m (targets_of o cs)
            | _ -> false) );
      ( "reachable",
        fun () ->
          same_set r.S.reachable
            ~size:(Array.fold_left (fun n b -> if b then n + 1 else n) 0 o.reachable)
            ~mem:(function [ m ] -> in_range o.reachable m && o.reachable.(m) | _ -> false) );
      ( "side_effects",
        fun () ->
          same_set r.S.side_effects ~size:(count_bits o.effects) ~mem:(function
            | [ m; h; f ] ->
              in_range o.effects m && f >= 0 && f < o.n_fields && h >= 0
              && Bits.mem o.effects.(m) ((h * o.n_fields) + f)
            | _ -> false) );
    ]
  in
  List.filter_map (fun (name, ok) -> if ok () then None else Some name) checks

(* The oracle against Jedd_minijava.Reference on [p]: every relation
   Reference defines.  Returns the names of the ones that differ. *)
let cross_check (p : P.t) =
  let o = compute p in
  let ref_pt, _ = Ref.points_to p in
  let ref_targets = Ref.call_targets p ref_pt in
  let ref_hier =
    Ref.IPS.elements (Ref.hierarchy p) |> List.filter (fun (a, b) -> a <> b)
  in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("hierarchy", ref_hier = o.subtypes);
      ("points_to", Ref.IPS.elements ref_pt = pt_pairs o);
      ("call_targets", Ref.IPS.elements ref_targets = call_edges o);
      ("reachable", Ref.IS.elements (Ref.reachable p ref_targets) = reachable o);
      ( "side_effects",
        Ref.ITS.elements (Ref.side_effects p ref_pt ref_targets) = side_effects o );
    ]
