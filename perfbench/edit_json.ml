(* Edit.t -> the "edit" object of a jeddd update request.

   Jedd_serve.Serve.edit_of_json is the daemon's decoder; [round_trips]
   checks an edit against it, so the stream the benchmark sends is the
   stream it models. *)

module Json = Jedd_server.Json
module Edit = Jedd_incr.Edit

let to_json (e : Edit.t) : Json.t =
  let obj op fields =
    Json.Obj (("op", Json.String op) :: List.map (fun (k, v) -> (k, Json.Int v)) fields)
  in
  match e with
  | Edit.Add_class { superclass } ->
    Json.Obj
      [
        ("op", Json.String "add_class");
        ( "superclass",
          match superclass with Some c -> Json.Int c | None -> Json.Null );
      ]
  | Edit.Add_method { cls; signature; n_vars; entry } ->
    Json.Obj
      [
        ("op", Json.String "add_method");
        ("cls", Json.Int cls);
        ("signature", Json.Int signature);
        ("n_vars", Json.Int n_vars);
        ("entry", Json.Bool entry);
      ]
  | Edit.Add_field -> obj "add_field" []
  | Edit.Add_alloc { var; cls } -> obj "add_alloc" [ ("var", var); ("cls", cls) ]
  | Edit.Add_assign { src; dst } -> obj "add_assign" [ ("src", src); ("dst", dst) ]
  | Edit.Add_store { src; base; field } ->
    obj "add_store" [ ("src", src); ("base", base); ("field", field) ]
  | Edit.Add_load { base; field; dst } ->
    obj "add_load" [ ("base", base); ("field", field); ("dst", dst) ]
  | Edit.Add_callsite { recv; signature; in_method } ->
    obj "add_callsite"
      [ ("recv", recv); ("signature", signature); ("in_method", in_method) ]
  | Edit.Remove_assign { src; dst } ->
    obj "remove_assign" [ ("src", src); ("dst", dst) ]
  | Edit.Remove_store { src; base; field } ->
    obj "remove_store" [ ("src", src); ("base", base); ("field", field) ]
  | Edit.Remove_load { base; field; dst } ->
    obj "remove_load" [ ("base", base); ("field", field); ("dst", dst) ]
  | Edit.Remove_callsite { callsite } ->
    obj "remove_callsite" [ ("callsite", callsite) ]
  | Edit.Remove_method { meth } -> obj "remove_method" [ ("meth", meth) ]
  | Edit.Remove_class { cls } -> obj "remove_class" [ ("cls", cls) ]

let request e = Json.Obj [ ("verb", Json.String "update"); ("edit", to_json e) ]

let round_trips e =
  match Jedd_serve.Serve.edit_of_json (request e) with
  | d -> d = e
  | exception _ -> false

(* One edit of each of the 14 constructors, so the round-trip check
   covers the encoder even where the seeded stream never goes. *)
let every_constructor =
  Edit.
    [
      Add_class { superclass = None };
      Add_class { superclass = Some 3 };
      Add_method { cls = 1; signature = 2; n_vars = 3; entry = true };
      Add_field;
      Add_alloc { var = 4; cls = 5 };
      Add_assign { src = 6; dst = 7 };
      Add_store { src = 8; base = 9; field = 10 };
      Add_load { base = 11; field = 12; dst = 13 };
      Add_callsite { recv = 14; signature = 15; in_method = 16 };
      Remove_assign { src = 17; dst = 18 };
      Remove_store { src = 19; base = 20; field = 21 };
      Remove_load { base = 22; field = 23; dst = 24 };
      Remove_callsite { callsite = 25 };
      Remove_method { meth = 26 };
      Remove_class { cls = 27 };
    ]
