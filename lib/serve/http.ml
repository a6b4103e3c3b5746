(* Minimal HTTP/1.1 for the jeddd JSON protocol: an incremental request
   parser (fed from a nonblocking socket's read buffer), a response
   writer with keep-alive and Content-Length framing, and a tiny
   blocking client used by jeddq and the load generator.

   Deliberately hand-rolled and deliberately small: one verb surface
   (POST a protocol request object, GET /ping, GET /stats), no chunked
   encoding, no TLS.  Oversized or malformed headers reject the
   connection rather than limp along. *)

module Json = Jedd_server.Json

let max_header_bytes = 8192
let max_body_bytes = 8 * 1024 * 1024

type request = {
  meth : string;
  path : string;
  headers : (string * string) list; (* names lowercased *)
  body : string;
  keep_alive : bool;
}

type parse_result =
  | Complete of request * int (* bytes consumed from the buffer *)
  | Incomplete
  | Invalid of string

let header req name = List.assoc_opt name req.headers

(* Find "\r\n\r\n" in [s.[pos..stop)]; -1 if absent. *)
let find_header_end s pos stop =
  let rec go i =
    if i + 3 >= stop then -1
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then i
    else go (i + 1)
  in
  go pos

let parse_headers lines =
  List.map
    (fun line ->
      match String.index_opt line ':' with
      | None -> raise Exit
      | Some i ->
        ( String.lowercase_ascii (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
    lines

(* Parse one request from [data.[pos .. pos+len)] (the live part of a
   connection's read buffer; all of [data] by default).  Pipelined
   requests are handled by the caller looping until [Incomplete]. *)
let parse_request ?(pos = 0) ?len data =
  let len = match len with Some n -> n | None -> String.length data - pos in
  let stop = pos + len in
  match find_header_end data pos stop with
  | -1 ->
    if len > max_header_bytes then Invalid "headers exceed 8192 bytes"
    else Incomplete
  | hdr_end -> (
    if hdr_end - pos > max_header_bytes then
      Invalid "headers exceed 8192 bytes"
    else
      let head = String.sub data pos (hdr_end - pos) in
      match String.split_on_char '\n' head with
      | [] -> Invalid "empty request"
      | req_line :: header_lines -> (
        let req_line = String.trim req_line in
        let header_lines =
          List.filter_map
            (fun l ->
              let l = String.trim l in
              if l = "" then None else Some l)
            header_lines
        in
        match String.split_on_char ' ' req_line with
        | [ meth; path; version ]
          when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
          match parse_headers header_lines with
          | exception Exit -> Invalid "malformed header line"
          | headers ->
            let content_length =
              match List.assoc_opt "content-length" headers with
              | None -> 0
              | Some v -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n >= 0 -> n
                | _ -> -1)
            in
            if content_length < 0 then Invalid "bad Content-Length"
            else if content_length > max_body_bytes then
              Invalid "body too large"
            else begin
              let body_start = hdr_end + 4 in
              if stop - body_start < content_length then Incomplete
              else begin
                let body = String.sub data body_start content_length in
                let keep_alive =
                  match
                    Option.map String.lowercase_ascii
                      (List.assoc_opt "connection" headers)
                  with
                  | Some "close" -> false
                  | Some "keep-alive" -> true
                  | _ -> version = "HTTP/1.1" (* 1.1 default: persistent *)
                in
                Complete
                  ( { meth; path; headers; body; keep_alive },
                    body_start + content_length - pos )
              end
            end)
        | _ -> Invalid "malformed request line"))

(* -- responses ----------------------------------------------------------- *)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Payload Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let response ?(status = 200) ?(keep_alive = true) body =
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: \
     %d\r\nConnection: %s\r\n\r\n%s"
    status (status_text status) (String.length body)
    (if keep_alive then "keep-alive" else "close")
    body

let error_response ?(keep_alive = false) status msg =
  response ~status ~keep_alive
    (Json.to_string
       (Json.Obj
          [ ("ok", Json.Bool false); ("error", Json.String msg) ]))

(* -- blocking client (jeddq, load generator) ----------------------------- *)

(* POST one protocol request to [path] over an established connection's
   channels; returns the response body.  Raises on a non-200 status so
   transport and protocol errors stay distinguishable. *)
let client_request ~ic ~oc ?(path = "/query") (v : Json.t) : Json.t =
  let body = Json.to_string v in
  output_string oc
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: jeddd\r\nContent-Type: \
        application/json\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body);
  flush oc;
  let status_line = input_line ic in
  let status =
    match String.split_on_char ' ' (String.trim status_line) with
    | _ :: code :: _ -> ( match int_of_string_opt code with
      | Some c -> c
      | None -> failwith "http: bad status line")
    | _ -> failwith "http: bad status line"
  in
  let content_length = ref (-1) in
  let rec read_headers () =
    let line = String.trim (input_line ic) in
    if line <> "" then begin
      (match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.sub line 0 i) = "content-length"
        ->
        content_length :=
          Option.value ~default:(-1)
            (int_of_string_opt
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))))
      | _ -> ());
      read_headers ()
    end
  in
  read_headers ();
  if !content_length < 0 then failwith "http: missing Content-Length";
  let body = really_input_string ic !content_length in
  if status <> 200 then
    failwith (Printf.sprintf "http: status %d: %s" status body)
  else Json.of_string body
