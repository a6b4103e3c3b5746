(* Tests for the async serving front end (lib/serve): HTTP/1.1 framing
   edge cases against the parser directly, then end-to-end checks over
   real sockets — the three transports answer bit-identically at any
   worker count, a frozen universe rejects mutation cleanly, the
   result cache warms up, and pipelined HTTP requests come back in
   order. *)

module Json = Jedd_server.Json
module Client = Jedd_server.Client
module Serve = Jedd_serve.Serve
module Http = Jedd_serve.Http
module Snapshot = Jedd_store.Snapshot
module Cas = Jedd_store.Cas
module Delta = Jedd_store.Delta
module Suite = Jedd_analyses.Suite
module Live = Jedd_analyses.Live
module Workload = Jedd_minijava.Workload

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- HTTP framing (no socket) -------------------------------------------- *)

let post body =
  Printf.sprintf
    "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let test_http_parse () =
  (match Http.parse_request (post "{\"verb\":\"ping\"}") with
  | Http.Complete (r, consumed) ->
    check Alcotest.string "method" "POST" r.Http.meth;
    check Alcotest.string "path" "/query" r.Http.path;
    check Alcotest.string "body" "{\"verb\":\"ping\"}" r.Http.body;
    checkb "1.1 defaults to keep-alive" true r.Http.keep_alive;
    checki "whole request consumed" (String.length (post "{\"verb\":\"ping\"}"))
      consumed
  | _ -> Alcotest.fail "complete request did not parse");
  (* header values are trimmed, names lowercased *)
  (match
     Http.parse_request "GET /ping HTTP/1.1\r\nX-Weird:   spaced \r\n\r\n"
   with
  | Http.Complete (r, _) ->
    check
      Alcotest.(option string)
      "header access" (Some "spaced") (Http.header r "x-weird")
  | _ -> Alcotest.fail "GET did not parse");
  (* explicit Connection handling, and the 1.0 default *)
  (match Http.parse_request (post "x" ^ "") with
  | Http.Complete (r, _) -> checkb "keep-alive" true r.Http.keep_alive
  | _ -> Alcotest.fail "parse");
  (match
     Http.parse_request
       "POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
   with
  | Http.Complete (r, _) -> checkb "close honoured" false r.Http.keep_alive
  | _ -> Alcotest.fail "parse");
  (match Http.parse_request "GET / HTTP/1.0\r\n\r\n" with
  | Http.Complete (r, _) -> checkb "1.0 defaults to close" false r.Http.keep_alive
  | _ -> Alcotest.fail "parse")

let test_http_partial_and_pipelined () =
  let full = post "{\"verb\":\"ping\"}" in
  (* every proper prefix is Incomplete, never Invalid and never a
     short Complete *)
  for n = 0 to String.length full - 1 do
    match Http.parse_request (String.sub full 0 n) with
    | Http.Incomplete -> ()
    | Http.Complete _ -> Alcotest.failf "prefix %d parsed as complete" n
    | Http.Invalid m -> Alcotest.failf "prefix %d invalid: %s" n m
  done;
  (* two pipelined requests: the first parse consumes exactly the
     first request, the remainder parses as the second *)
  let second = post "{\"verb\":\"version\"}" in
  let data = full ^ second in
  match Http.parse_request data with
  | Http.Complete (r1, consumed) ->
    check Alcotest.string "first body" "{\"verb\":\"ping\"}" r1.Http.body;
    let rest = String.sub data consumed (String.length data - consumed) in
    (match Http.parse_request rest with
    | Http.Complete (r2, consumed2) ->
      check Alcotest.string "second body" "{\"verb\":\"version\"}" r2.Http.body;
      checki "nothing left over" (String.length rest) consumed2
    | _ -> Alcotest.fail "second pipelined request did not parse")
  | _ -> Alcotest.fail "first pipelined request did not parse"

let test_http_rejects () =
  let invalid s =
    match Http.parse_request s with
    | Http.Invalid _ -> ()
    | Http.Complete _ -> Alcotest.failf "accepted %S" s
    | Http.Incomplete -> Alcotest.failf "%S treated as incomplete" s
  in
  invalid "NONSENSE\r\n\r\n";
  invalid "GET / HTTP/2.0\r\n\r\n";
  invalid "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  invalid "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n";
  invalid "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
  (* oversized headers are rejected even before the blank line shows up *)
  invalid ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 9000 'a');
  invalid ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 9000 'a' ^ "\r\n\r\n")

(* -- live-server fixture -------------------------------------------------- *)

(* A socket path no other process holds: [temp_file] creates a fresh
   name (a pid alone repeats across PID namespaces that share one
   temporary directory), and the placeholder goes so the server can
   bind it. *)
let fresh_sock_path prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  path

(* Serialize the tiny-workload snapshot and reload it — the reload is
   what jeddd does, and ~freeze lands the universe read-only. *)
let with_serve ?(workers = 2) ?(frozen = true) f =
  let p = Workload.generate Workload.tiny in
  let inst, _ = Suite.run_combined p in
  let bytes = Snapshot.to_bytes (Suite.snapshot inst) in
  let snap = Snapshot.of_bytes ~freeze:frozen bytes in
  let hash = Digest.to_hex (Digest.string bytes) in
  let sock = fresh_sock_path "jedd-serve-test" in
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
  let tcp_port = Option.get (Serve.tcp_port server) in
  let http_port = Option.get (Serve.http_port server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f ~sock ~tcp_port ~http_port)

(* Test clients give up on any read or write after 30 s, so a server
   that stopped answering fails its test instead of hanging the suite. *)
let bounded c =
  Client.set_timeout c 30.;
  c

let connect sock = bounded (Client.connect ~retries:10 sock)
let connect_tcp port =
  bounded (Client.connect_tcp ~retries:10 "127.0.0.1" port)

let q verb fields = Json.Obj (("verb", Json.String verb) :: fields)

let probe_queries =
  [
    q "ping" [];
    q "relations" [];
    q "count" [ ("rel", Json.String "PointsTo.pt") ];
    q "tuples" [ ("rel", Json.String "PointsTo.pt"); ("limit", Json.Int 5) ];
  ]

(* Responses (as strings) to the probe queries over each transport. *)
let probe_all ~sock ~tcp_port ~http_port =
  let over connect is_http =
    let c = connect () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.map
      (fun query ->
        Json.to_string
          (if is_http then
             Http.client_request ~ic:c.Client.ic ~oc:c.Client.oc query
           else Client.request c query))
      probe_queries
  in
  [
    over (fun () -> connect sock) false;
    over (fun () -> connect_tcp tcp_port) false;
    over
      (fun () -> connect_tcp http_port)
      true;
  ]

(* -- end-to-end ----------------------------------------------------------- *)

let test_differential () =
  let single =
    with_serve ~workers:1 (fun ~sock ~tcp_port ~http_port ->
        probe_all ~sock ~tcp_port ~http_port)
  in
  let multi =
    with_serve ~workers:2 (fun ~sock ~tcp_port ~http_port ->
        probe_all ~sock ~tcp_port ~http_port)
  in
  let reference = List.hd single in
  List.iteri
    (fun i rs ->
      checkb
        (Printf.sprintf "single-worker transport %d matches unix" i)
        true (rs = reference))
    single;
  List.iteri
    (fun i rs ->
      checkb
        (Printf.sprintf "two-worker transport %d matches single-worker" i)
        true (rs = reference))
    multi

let test_frozen_rejects_mutation () =
  with_serve ~workers:2 (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let resp = Client.request c (q "reorder" []) in
      (match Json.member "ok" resp with
      | Some (Json.Bool false) -> ()
      | _ -> Alcotest.failf "reorder on a frozen universe succeeded: %s"
               (Json.to_string resp));
      match Json.member "error" resp with
      | Some (Json.String msg) ->
        checkb "error names the frozen state" true
          (let lower = String.lowercase_ascii msg in
           let rec find i =
             i + 6 <= String.length lower
             && (String.sub lower i 6 = "frozen" || find (i + 1))
           in
           find 0)
      | _ -> Alcotest.fail "no error message");
  (* and an unfrozen server accepts the same verb *)
  with_serve ~workers:1 ~frozen:false (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let resp = Client.request c (q "reorder" []) in
      match Json.member "ok" resp with
      | Some (Json.Bool true) -> ()
      | _ ->
        Alcotest.failf "reorder on an unfrozen universe failed: %s"
          (Json.to_string resp))

let test_cache_and_stats () =
  with_serve ~workers:2 (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let query = q "count" [ ("rel", Json.String "PointsTo.pt") ] in
      let r1 = Client.request c query in
      let r2 = Client.request c query in
      checkb "repeat answers agree" true
        (Json.to_string r1 = Json.to_string r2);
      let stats = Client.request c (q "stats" []) in
      let get path obj =
        match Json.member path obj with
        | Some v -> v
        | None ->
          Alcotest.failf "stats lacks %S: %s" path (Json.to_string stats)
      in
      (match get "result_cache" stats with
      | Json.Obj _ as rc -> (
        match Json.member "hits" rc with
        | Some (Json.Int h) -> checkb "cache hit recorded" true (h >= 1)
        | _ -> Alcotest.fail "result_cache lacks hits")
      | _ -> Alcotest.fail "result_cache is not an object");
      (match get "latency" stats with
      | Json.Obj kvs -> checkb "per-verb latency present" true (kvs <> [])
      | _ -> Alcotest.fail "latency is not an object");
      (match get "workers" stats with
      | Json.Int w -> checki "worker count reported" 2 w
      | _ -> Alcotest.fail "workers is not an int");
      match get "frozen" stats with
      | Json.Bool b -> checkb "frozen reported" true b
      | _ -> Alcotest.fail "frozen is not a bool")

(* Two POSTs written back-to-back before reading anything: the server
   must answer both, in order, on the one connection. *)
let test_http_pipelining_live () =
  with_serve ~workers:2 (fun ~sock:_ ~tcp_port:_ ~http_port ->
      let c = connect_tcp http_port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let body1 = Json.to_string (q "ping" []) in
      let body2 =
        Json.to_string (q "count" [ ("rel", Json.String "PointsTo.pt") ])
      in
      let raw body =
        Printf.sprintf
          "POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
          (String.length body) body
      in
      output_string c.Client.oc (raw body1 ^ raw body2);
      flush c.Client.oc;
      let read_response () =
        let status = input_line c.Client.ic in
        let code =
          match String.split_on_char ' ' (String.trim status) with
          | _ :: code :: _ -> int_of_string code
          | _ -> Alcotest.failf "bad status line %S" status
        in
        let content_length = ref 0 in
        let rec headers () =
          let line = String.trim (input_line c.Client.ic) in
          if line <> "" then begin
            (match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
              content_length :=
                int_of_string
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> ());
            headers ()
          end
        in
        headers ();
        let body = really_input_string c.Client.ic !content_length in
        (code, Json.of_string body)
      in
      let code1, resp1 = read_response () in
      let code2, resp2 = read_response () in
      checki "first response 200" 200 code1;
      checki "second response 200" 200 code2;
      checkb "first is the ping reply" true
        (Json.member "pong" resp1 <> None
        || Json.member "ok" resp1 = Some (Json.Bool true));
      (match Json.member "tuples" resp2 with
      | Some (Json.Int n) -> checkb "second is the count reply" true (n > 0)
      | _ ->
        Alcotest.failf "second reply is not a count: %s"
          (Json.to_string resp2)))

let test_http_oversized_header_live () =
  with_serve ~workers:1 (fun ~sock:_ ~tcp_port:_ ~http_port ->
      let c = connect_tcp http_port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      output_string c.Client.oc
        ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 10000 'a');
      flush c.Client.oc;
      let status = input_line c.Client.ic in
      checkb "431 for oversized headers" true
        (match String.split_on_char ' ' (String.trim status) with
        | _ :: code :: _ -> code = "431"
        | _ -> false))

(* -- overload ------------------------------------------------------------- *)

(* Whether this process may hold [n] more descriptors at once. *)
let can_hold_fds n =
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close !fds)
    (fun () ->
      try
        for _ = 1 to n do
          fds := Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 :: !fds
        done;
        true
      with Unix.Unix_error ((EMFILE | ENFILE), _, _) -> false)

(* A client whose connect, reads and writes give up after 10 s, so a
   server that stopped accepting fails the test instead of hanging it. *)
let connect_bounded sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Client.of_fd fd

(* select() cannot watch descriptors at or above FD_SETSIZE (1024).
   With every lower descriptor held, a new client's server end lands
   past that limit: it is refused with an error, and the loop keeps
   answering the client it already had and the next one to connect
   once descriptors are free again. *)
let test_many_clients () =
  let held = 1100 in
  if not (can_hold_fds (held + 64)) then Alcotest.skip ();
  with_serve ~workers:1 (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let first = connect sock in
      Fun.protect ~finally:(fun () -> Client.close first) @@ fun () ->
      Client.ping first;
      let fds =
        List.init held (fun _ ->
            Unix.openfile Filename.null [ Unix.O_RDONLY ] 0)
      in
      (Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
       let late = connect_bounded sock in
       Fun.protect ~finally:(fun () -> Client.close late) @@ fun () ->
       let refusal = Json.of_string (input_line late.Client.ic) in
       checkb "a client past the limit is refused" true
         (Json.member "ok" refusal = Some (Json.Bool false));
       Client.ping first);
      let c = connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.ping c)

(* One client pipelines 20,000 pings in a single write while another
   pings every 20 ms: the burst's replies all arrive, in order, and the
   other client never waits a second. *)
let test_pipelined_burst () =
  with_serve ~workers:1 (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let n = 20_000 in
      let burst = connect sock in
      let probe = connect sock in
      Fun.protect
        ~finally:(fun () ->
          Client.close burst;
          Client.close probe)
      @@ fun () ->
      Client.set_timeout burst 60.;
      Client.set_timeout probe 60.;
      let payload = Buffer.create (n * 32) in
      for i = 1 to n do
        Buffer.add_string payload
          (Printf.sprintf "{\"verb\":\"ping\",\"id\":%d}\n" i)
      done;
      let writer =
        Thread.create
          (fun () ->
            try
              output_string burst.Client.oc (Buffer.contents payload);
              flush burst.Client.oc
            with Sys_error _ -> ())
          ()
      in
      let finished = Atomic.make false in
      let worst = ref 0. in
      let prober =
        Thread.create
          (fun () ->
            while not (Atomic.get finished) do
              let t0 = Unix.gettimeofday () in
              (try Client.ping probe with _ -> worst := infinity);
              worst := Float.max !worst (Unix.gettimeofday () -. t0);
              Thread.delay 0.02
            done)
          ()
      in
      let in_order = ref true in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set finished true;
          (* if the replies stopped, the writer may still be blocked on
             the socket: shutting it down fails that write, so no thread
             outlives the test (a thread stuck in a channel write would
             also stall the exit-time flush of every channel) *)
          (try Unix.shutdown burst.Client.fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          Thread.join writer;
          Thread.join prober)
        (fun () ->
          for i = 1 to n do
            let reply = Json.of_string (input_line burst.Client.ic) in
            if Json.member "id" reply <> Some (Json.Int i) then
              in_order := false
          done);
      checkb "every burst reply arrives, in order" true !in_order;
      checkb
        (Printf.sprintf "the other client's worst ping (%.3f s) is under 1 s"
           !worst)
        true (!worst < 1.0))

(* -- live updates and generation swaps ------------------------------------ *)

(* A serving stack around a mutable Live session: frozen generation-0
   copy of the shadow universe, a CAS store publishing under ref
   "live", and the updater thread enabled. *)
let with_live_serve ?(workers = 2) f =
  let p = Workload.generate Workload.tiny in
  let session = Live.create p in
  let bytes = Snapshot.to_bytes (Suite.snapshot (Live.inst session)) in
  let hash = Digest.to_hex (Digest.string bytes) in
  let snap = Snapshot.of_bytes ~freeze:true bytes in
  let root = Filename.temp_file "jedd_cas" "" in
  Sys.remove root;
  let cas = Cas.open_ root in
  Cas.tag cas "live" (Cas.put cas bytes);
  let sock = fresh_sock_path "jedd-serve-live" in
  let config = { Serve.default_config with unix_path = Some sock; workers } in
  let live_cfg =
    { Serve.session; initial_bytes = bytes; publish = Some (cas, "live") }
  in
  let server = Serve.create ~config ~live:live_cfg ~universe_hash:hash snap in
  let th = Thread.create Serve.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f ~sock ~cas ~session)

let int_member what key obj =
  match Json.member key obj with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "%s: no integer %S in %s" what key (Json.to_string obj)

let test_live_update_swaps_generation () =
  with_live_serve (fun ~sock ~cas ~session ->
      let c = connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let count () =
        int_member "count" "tuples"
          (Client.request c (q "count" [ ("rel", Json.String "PointsTo.pt") ]))
      in
      let generation () =
        int_member "stats" "generation" (Client.request c (q "stats" []))
      in
      checki "starts at generation 0" 0 (generation ());
      let before = count () in
      (* a fresh allocation must add at least one points-to tuple *)
      let update edit_fields =
        Client.request c
          (Json.Obj
             [
               ("verb", Json.String "update");
               ("edit", Json.Obj edit_fields);
               ("timeout_ms", Json.Int 120_000);
             ])
      in
      let resp =
        update
          [
            ("op", Json.String "add_alloc");
            ("var", Json.Int 0);
            ("cls", Json.Int 0);
          ]
      in
      checkb "update succeeded" true
        (Json.member "ok" resp = Some (Json.Bool true));
      checki "reply names generation 1" 1 (int_member "update" "generation" resp);
      (match Json.member "mode" resp with
      | Some (Json.String m) ->
        checkb "additions stay incremental" true (m = "incremental")
      | _ -> Alcotest.fail "update reply lacks mode");
      checki "queries see the new generation" 1 (generation ());
      checkb "points-to grew" true (count () > before);
      (* answers match a from-scratch solve of the edited program *)
      let _, fresh = Suite.run_combined (Live.program session) in
      checki "tuple count matches from-scratch" (List.length fresh.Suite.pt)
        (count ());
      (* the new generation was published under the CAS ref (delta or
         full), and replaying the chain reproduces the served bytes *)
      (match Json.member "published" resp with
      | Some (Json.Obj _ as pub) -> (
        match (Json.member "ref" pub, Json.member "object" pub) with
        | Some (Json.String "live"), Some (Json.String obj_hex) ->
          checkb "ref points at the published object" true
            (Cas.read_ref cas "live" = Some obj_hex);
          let replayed = Delta.load_chain cas "live" in
          (match Json.member "universe_hash" resp with
          | Some (Json.String h) ->
            check Alcotest.string "chain replays to the served snapshot" h
              (Digest.to_hex (Digest.string replayed))
          | _ -> Alcotest.fail "update reply lacks universe_hash")
        | _ -> Alcotest.failf "bad published payload: %s" (Json.to_string pub))
      | _ -> Alcotest.fail "update reply lacks published");
      (* a second update moves to generation 2 and keeps serving *)
      let resp2 =
        update
          [
            ("op", Json.String "add_assign");
            ("src", Json.Int 0);
            ("dst", Json.Int 1);
          ]
      in
      checkb "second update succeeded" true
        (Json.member "ok" resp2 = Some (Json.Bool true));
      checki "generation 2" 2 (int_member "update" "generation" resp2);
      checkb "still answering" true (count () > 0);
      (* invalid edits are rejected without killing the session *)
      let bad =
        update
          [
            ("op", Json.String "add_alloc");
            ("var", Json.Int 999_999);
            ("cls", Json.Int 0);
          ]
      in
      checkb "invalid edit rejected" true
        (Json.member "ok" bad = Some (Json.Bool false));
      checki "generation unchanged after rejection" 2 (generation ()))

let test_update_without_live_session () =
  with_serve ~workers:1 (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let resp =
        Client.request c
          (q "update"
             [ ("edit", Json.Obj [ ("op", Json.String "add_field") ]) ])
      in
      checkb "update refused" true
        (Json.member "ok" resp = Some (Json.Bool false));
      match Json.member "error" resp with
      | Some (Json.String msg) ->
        checkb "error mentions --live" true
          (let needle = "--live" in
           let nl = String.length needle and hl = String.length msg in
           let rec go i =
             i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
           in
           go 0)
      | _ -> Alcotest.fail "no error message")

let suite =
  [
    Alcotest.test_case "http framing: complete requests" `Quick
      test_http_parse;
    Alcotest.test_case "http framing: partial and pipelined" `Quick
      test_http_partial_and_pipelined;
    Alcotest.test_case "http framing: rejects" `Quick test_http_rejects;
    Alcotest.test_case "three transports, bit-identical answers" `Quick
      test_differential;
    Alcotest.test_case "frozen universe rejects mutation" `Quick
      test_frozen_rejects_mutation;
    Alcotest.test_case "result cache and stats shape" `Quick
      test_cache_and_stats;
    Alcotest.test_case "live http pipelining" `Quick
      test_http_pipelining_live;
    Alcotest.test_case "live http oversized header -> 431" `Quick
      test_http_oversized_header_live;
    Alcotest.test_case "clients past FD_SETSIZE" `Quick test_many_clients;
    Alcotest.test_case "pipelined burst, other client" `Quick
      test_pipelined_burst;
    Alcotest.test_case "update verb swaps generations" `Quick
      test_live_update_swaps_generation;
    Alcotest.test_case "update without --live is refused" `Quick
      test_update_without_live_session;
  ]
