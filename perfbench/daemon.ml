(* jeddd as a child process: spawn it on an ephemeral TCP port, time
   spawn-to-first-pong, and stop it again.  Every child is killed and
   reaped at exit, whatever path the benchmark leaves by. *)

module Json = Jedd_server.Json
module Client = Jedd_server.Client

type t = { pid : int; out : in_channel; port : int }

let children : int list ref = ref []

let reap pid =
  let rec wait () =
    try ignore (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (try wait () with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

let port_of_line line =
  let prefix = "jeddd: listening on tcp " in
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    match String.rindex_opt line ':' with
    | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
    | None -> None
  else None

let connect port =
  let c = Client.connect_tcp ~retries:5 "127.0.0.1" port in
  Client.set_timeout c 60.;
  c

(* Start [exe args] on 127.0.0.1 and wait for its first pong.  Returns
   the daemon and the seconds from spawn to pong. *)
let start ~exe args =
  let t0 = Unix.gettimeofday () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list ((exe :: args) @ [ "--no-socket"; "--tcp"; "127.0.0.1:0" ])
  in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  children := pid :: !children;
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let rec find_port () =
    match input_line out with
    | line -> (
      match port_of_line line with Some p -> p | None -> find_port ())
    | exception End_of_file -> failwith "jeddd exited before listening"
  in
  let port = find_port () in
  let c = connect port in
  Client.ping c;
  let ready = Unix.gettimeofday () -. t0 in
  Client.close c;
  ({ pid; out; port }, ready)

let stats t =
  let c = connect t.port in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request_ok c (Client.req "stats" []))

(* Peak resident set of the daemon, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> Float.nan
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let stop t =
  (try
     let c = connect t.port in
     Client.shutdown c;
     Client.close c
   with _ -> ( try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  (try
     while true do
       ignore (input_line t.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr t.out;
  reap t.pid

(* Start the daemon [n] times, keeping the last; the setup time is the
   median of the n spawn-to-pong times. *)
let start_median ~exe ~n args =
  let rec go k times =
    let d, s = start ~exe args in
    if k <= 1 then (d, Stats.median (s :: times))
    else begin
      stop d;
      go (k - 1) (s :: times)
    end
  in
  go n []
