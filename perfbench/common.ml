(* What every workload gets and gives back. *)

module P = Jedd_minijava.Program
module Workload = Jedd_minijava.Workload

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  spans : Spans.t;
  jeddd : string;  (** path of the jeddd executable *)
  work : string;  (** directory for snapshots, spans and results *)
  jobs : int;  (** domains for the analysis, as the CLIs resolve it *)
}

type metric = string * float * string  (** name, value, unit *)

type outcome = {
  program : P.t;
  e2e : metric list;  (** the gated end-to-end metrics *)
  paths : metric list;  (** the user-path metrics under their own names *)
  layers : metric list;  (** per-layer metrics (traced run only) *)
  samples : (string * float list) list;
      (** raw timings behind the quantiles, where they are few enough to keep *)
  attempted : int;
  failed : int;
  notes : string list;  (** why operations failed *)
}

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.

(* The javac-shaped program, statement lists shuffled by [seed].  The
   shuffle keeps the program (and every analysis result) the same up to
   the order facts are loaded in; the generator seed stays at the
   profile's, because program size swings threefold across generator
   seeds, which would swamp any change a benchmark should detect. *)
let javac ~seed =
  let p = Workload.generate (Workload.profile_named "javac") in
  let st = Random.State.make [| seed; 0x6a617663 |] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  {
    p with
    P.allocs = shuffle p.P.allocs;
    assigns = shuffle p.P.assigns;
    stores = shuffle p.P.stores;
    loads = shuffle p.P.loads;
    calls = shuffle p.P.calls;
  }

(* The oracle must agree with Jedd_minijava.Reference before it judges
   anything: checked on the tiny and compress profiles. *)
let check_oracle () =
  List.concat_map
    (fun prof ->
      List.map
        (fun rel -> Printf.sprintf "oracle differs from Reference on %s.%s" prof.Workload.name rel)
        (Oracle.cross_check (Workload.generate prof)))
    [ Workload.tiny; Workload.profile_named "compress" ]
