(* The demo server as a child process: [extract serve] started the way a
   user starts it, timed from process start to the first /readyz 200,
   and always stopped (SIGTERM, then SIGKILL) and reaped. *)

type t = { pid : int; port : int; stdout : Unix.file_descr }

let running : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  running := List.filter (( <> ) pid) !running

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !running

let () = at_exit kill_all

(* the server must not inherit tracing, sampling, fault or log settings
   from the caller's environment *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.length kv >= 8 && String.sub kv 0 8 = "EXTRACT_"))
  |> Array.of_list

let read_line_timeout fd ~timeout =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then failwith "server did not announce its port in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd byte 0 1 with
      | 0 -> failwith "server exited before announcing its port"
      | _ ->
        if Bytes.get byte 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_bytes buf byte;
          go ()
        end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let port_of_banner line =
  match String.index_opt line ':' with
  | None -> None
  | Some _ ->
    (* "eXtract demo server on http://127.0.0.1:PORT/ (...)" *)
    let marker = "127.0.0.1:" in
    let rec find i =
      if i + String.length marker > String.length line then None
      else if String.sub line i (String.length marker) = marker then
        let j = ref (i + String.length marker) in
        while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        int_of_string_opt
          (String.sub line (i + String.length marker) (!j - i - String.length marker))
      else find (i + 1)
    in
    find 0

(* Start [exe serve ARGS]; returns the server and the seconds from
   process start to the first /readyz 200. *)
let start ~exe ~args ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let t0 = Unix.gettimeofday () in
  (* the server runs at a lower CPU priority than the load generator: on
     a two-core box its two busy workers would otherwise delay the
     generator's sends and reads, and the generator's own lateness would
     pass for server latency *)
  let pid =
    Unix.create_process_env "nice"
      (Array.of_list ("nice" :: "-n" :: "5" :: exe :: "serve" :: args))
      (child_env ()) Unix.stdin w err
  in
  running := pid :: !running;
  Unix.close w;
  Unix.close err;
  let line = read_line_timeout r ~timeout:600. in
  let port =
    match port_of_banner line with
    | Some p -> p
    | None -> failwith ("unexpected server banner: " ^ line)
  in
  let rec ready () =
    match Openloop.fetch port "/readyz" with
    | 200, _ -> ()
    | _ ->
      Unix.sleepf 0.0005;
      ready ()
    | exception (Unix.Unix_error _ | Failure _) ->
      Unix.sleepf 0.0005;
      ready ()
  in
  ready ();
  { pid; port; stdout = r }, Unix.gettimeofday () -. t0

(* VmHWM: the process's resident-set high-water mark, in MB *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
             String.sub l 6 (String.length l - 6)
             |> String.trim
             |> String.split_on_char ' '
             |> List.hd
             |> float_of_string_opt
             |> Option.map (fun kb -> kb /. 1024.)
           else None)
    |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* user + system CPU seconds the server has used (/proc/PID/stat fields
   14 and 15, in clock ticks of 1/100 s) *)
let cpu_seconds t =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" t.pid) In_channel.input_all with
  | s -> (
    (* the command name (field 2) may hold spaces: split after its ')' *)
    let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    match Array.of_list (String.split_on_char ' ' rest) with
    | fields when Array.length fields > 12 ->
      (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.
    | _ -> nan)
  | exception Sys_error _ -> nan

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap t.pid
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> running := List.filter (( <> ) t.pid) !running
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      running := List.filter (( <> ) t.pid) !running
  in
  wait ();
  (try Unix.close t.stdout with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* /metrics scrapes *)

type scrape = (string * float) list (* "name{labels}" -> value *)

let scrape t : scrape =
  match Openloop.fetch t.port "/metrics" with
  | 200, body ->
    String.split_on_char '\n' body
    |> List.filter_map (fun l ->
           if l = "" || l.[0] = '#' then None
           else
             match String.rindex_opt l ' ' with
             | Some i ->
               Option.map
                 (fun v -> String.sub l 0 i, v)
                 (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
             | None -> None)
  | _ -> []

let value (s : scrape) key = Option.value ~default:0. (List.assoc_opt key s)

(* Sum of every series of a metric family whose label set contains
   [label] (all series when [label] is empty). *)
let family (s : scrape) ?(label = "") name =
  List.fold_left
    (fun acc (k, v) ->
      let base, labels =
        match String.index_opt k '{' with
        | Some i -> String.sub k 0 i, String.sub k i (String.length k - i)
        | None -> k, ""
      in
      if base = name && (label = "" || Openloop.contains ~sub:label labels) then acc +. v else acc)
    0. s
