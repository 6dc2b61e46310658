(* The planning daemon under test: a separate [pdw serve] process with
   its socket, plan store and log under the run directory.  One worker
   domain, so the daemon and this load generator each have one of the
   host's two cores. *)

module Wire = Pdw_service.Wire
module Protocol = Pdw_service.Protocol
module Json = Pdw_obs.Json
module Clock = Pdw_obs.Clock

type t = { pid : int; socket : string; store : string; log : string }

let workers = 1

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let reap pid ~within =
  let deadline = Clock.now () +. within in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap t.pid ~within:5.0)

(* Paths stay relative to the working directory: a Unix socket path is
   limited to 107 bytes, and the checkout may sit deep. *)
let spawn ~pdw ~dir ~name =
  mkdir_p dir;
  let socket = Filename.concat dir (name ^ ".sock") in
  let store = Filename.concat dir (name ^ ".store") in
  rm_rf socket;
  rm_rf store;
  let log_path = Filename.concat dir (name ^ ".log") in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process pdw
          [| pdw; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--store"; store |]
          Unix.stdin log log)
  in
  let t = { pid; socket; store; log = log_path } in
  let deadline = Clock.now () +. 30.0 in
  let rec wait () =
    match connect socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ when Clock.now () < deadline ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "pdw serve exited before listening");
      Unix.sleepf 0.005;
      wait ()
    | exception e ->
      kill t;
      raise e
  in
  wait ();
  t

(* Peak resident set of the daemon, read before it is stopped. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

let request fd req =
  Wire.write_frame fd (Json.to_string (Protocol.request_to_json req));
  match Wire.read_frame fd with
  | Some reply -> reply
  | None -> failwith "daemon closed the connection"

(* Shut down over the protocol and wait for the process; kill it if it
   does not exit.  The log is kept only when the daemon had to be
   killed. *)
let stop t =
  (match connect t.socket with
   | fd ->
     (try ignore (request fd Protocol.Shutdown) with _ -> ());
     Unix.close fd
   | exception Unix.Unix_error _ -> ());
  if reap t.pid ~within:10.0 then rm_rf t.log else kill t;
  rm_rf t.store;
  rm_rf t.socket
