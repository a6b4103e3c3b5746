(* Order statistics over float samples. *)

let sorted l = List.sort compare l

(* Quantile [q] in [0, 1]: the mean of the order statistics within half
   a percentile of rank [q], or the nearest rank when that window is
   empty.  Averaging a window keeps a latency quantile from reading as
   one clock tick over another when samples number in the thousands. *)
let quantile q l =
  match sorted l with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = float_of_int (Array.length a) in
    let clamp i = max 0 (min (Array.length a - 1) i) in
    let lo = clamp (int_of_float (Float.floor ((q -. 0.005) *. n)))
    and hi = clamp (int_of_float (Float.ceil ((q +. 0.005) *. n)) - 1) in
    if lo > hi then a.(clamp (int_of_float (Float.ceil (q *. n)) - 1))
    else begin
      let sum = ref 0. in
      for i = lo to hi do
        sum := !sum +. a.(i)
      done;
      !sum /. float_of_int (hi - lo + 1)
    end

(* The median interpolates between the two middle values. *)
let median l =
  match sorted l with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b
