(* The net-stream workload: a real Bss_net.Server in a process of its own
   on a loopback Unix socket, with one worker and a fresh journal, driven
   by one client connection in a closed loop with [window] requests in
   flight. The stream is Request.soak_stream: all nine families, all
   variants, n 8-32, so wire, admission, queue and the server loop are most
   of each request. *)

open Bss_util
open Bss_instances
open Bss_core
module Request = Bss_service.Request
module Runtime = Bss_service.Runtime
module Journal = Bss_service.Journal
module Wire = Bss_net.Wire
module Server = Bss_net.Server
module Probe = Bss_obs.Probe
module Report = Bss_obs.Report

let window = 2

(* Sealing the journal every [rotate_every] entries keeps each flush
   proportional to the unsealed tail. Without rotation every flush
   rewrites the whole history, so throughput would fall with run length. *)
let rotate_every = 256

(* The journal is flushed every [checkpoint_every] completions, as a
   server started with [bss serve --checkpoint-every 64] does. Each flush
   writes a file and discards the one it replaces; at the default of 8
   those disk operations made a run's throughput follow the shared disk's
   load more than the program's. *)
let checkpoint_every = 64

(* Requests generated per run: more than a run at this size answers. *)
let stream_length = 150_000

(* makespan_ratio and the digest cover this fixed prefix of the stream,
   so they do not depend on how many requests a run got through. *)
let quality_prefix = 1000

(* Throughput and p99 are medians over slices of the run this long, so a
   few seconds in which the machine stalls move them less than they would
   move a figure over the whole run. *)
let slice_ns = 1e9

type reply = {
  req : Request.t;
  at_ns : float;  (** when the answer arrived, from the first send *)
  rtt_ns : float;
  makespan : string option;
  rung : string option;
  solve_ns : float;
  queue_wait_ns : float;
}

type phase = {
  replies : reply list;  (** answered, in stream order *)
  sent : int;
  failures : string list;
  wall_s : float;  (** first send to last reply *)
  server : Server.summary option;
  words : float;  (** minor words of the client and the server process *)
  majors : int;
  server_rss_mb : float;  (** the server process's peak resident set *)
  journal_bytes : int;
  report : Report.t;
}

let now_ns = Layer.now_ns

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree p =
  match (Unix.lstat p).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let connect path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* The client end of one connection. *)
type conn = { fd : Unix.file_descr; rbuf : Buffer.t }

(* The server runs in a process of its own, as [bss serve] does, so its
   collections never stop the client and the client's never stop it. The
   process is this executable with [--serve-net]; it answers on the socket
   until SIGTERM, then writes a [served] to its standard output. *)
type served = { summary : Server.summary; words : float; majors : int; rss_mb : float; report : Report.t }

type server = { pid : int; out : Unix.file_descr; conn : conn }

let server_config ~sock ~seed =
  {
    Server.listen_path = sock;
    service = { Runtime.default_config with workers = Some 1; seed; checkpoint_every };
    quota = None;
    read_timeout_ms = Server.default_read_timeout_ms;
    write_timeout_ms = Server.default_write_timeout_ms;
    drain_after = None;
    max_frame_bytes = Server.default_max_frame_bytes;
  }

let socket_path dir = Filename.concat dir "s.sock"

(* The body of the server process: serve with a fresh journal in [dir]
   until SIGTERM, or until the benchmark that started it has gone. *)
let serve_main ~dir ~seed ~traced =
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let parent = Unix.getppid () in
  let should_stop () = !stop || Unix.getppid () <> parent in
  let journal = Journal.fresh ~rotate_every (Filename.concat dir "journal") in
  let body () =
    let w0 = Gc.minor_words () and gc0 = (Gc.quick_stat ()).Gc.major_collections in
    let summary = Server.serve ~journal ~should_stop (server_config ~sock:(socket_path dir) ~seed) in
    (summary, Gc.minor_words () -. w0, (Gc.quick_stat ()).Gc.major_collections - gc0)
  in
  let (summary, words, majors), report =
    if traced then Probe.with_recording body else (body (), Report.empty)
  in
  (* the outcomes are checked on the client side; leave them out *)
  let summary = { summary with Server.service = { summary.Server.service with Runtime.outcomes = [] } } in
  Marshal.to_channel stdout { summary; words; majors; rss_mb = Out.peak_rss_mb (); report } [];
  flush stdout

let chunk = Bytes.create 65536

(* Read what is available within [timeout] seconds and return the complete
   lines; [None] on end of stream, [Some []] on timeout. *)
let read_lines c ~timeout =
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> Some []
  | _ -> (
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 | (exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) -> None
    | k ->
      Buffer.add_subbytes c.rbuf chunk 0 k;
      Some (Wire.drain_lines c.rbuf))

(* Stop the server process and wait for it to end; returns what it
   reported, or why it reported nothing. *)
let finish s =
  (try Unix.close s.conn.fd with Unix.Unix_error _ -> ());
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr s.out in
  let served = try Ok (Marshal.from_channel ic : served) with e -> Error e in
  close_in_noerr ic;
  let _, status = Unix.waitpid [] s.pid in
  match (served, status) with
  | Ok v, Unix.WEXITED 0 -> v
  | Error e, _ -> failwith ("server process gave no summary: " ^ Printexc.to_string e)
  | Ok _, _ -> failwith "server process did not exit cleanly"

(* Start a server process with a fresh journal in [dir] and connect to it;
   returns once a ping has been answered, so the server is ready to serve.
   On any failure the process is stopped before the exception escapes. *)
let start ~dir ~seed ~traced =
  mkdir_p dir;
  let out, child_out = Unix.pipe ~cloexec:true () in
  let trace = if traced then "1" else "0" in
  let args = [| Sys.executable_name; "--serve-net"; dir; "--seed"; string_of_int seed; "--trace"; trace |] in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin child_out Unix.stderr in
  Unix.close child_out;
  let fd =
    try connect (socket_path dir)
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close out;
      raise e
  in
  let s = { pid; out; conn = { fd; rbuf = Buffer.create 4096 } } in
  let rec await () =
    match read_lines s.conn ~timeout:10. with
    | Some [] | None -> failwith "server did not answer a ping within 10 s"
    | Some lines ->
      if not (List.exists (fun l -> match Wire.parse_reply l with Ok Wire.Pong -> true | _ -> false) lines)
      then await ()
  in
  match
    write_all s.conn.fd (Wire.ping_frame ^ "\n");
    await ()
  with
  | () -> s
  | exception e ->
    (try ignore (finish s) with _ -> ());
    raise e

let journal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if String.length f >= 7 && String.sub f 0 7 = "journal" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* Drive [requests] through [s] for [seconds]: closed loop, [window] in
   flight. A request counts as failed when its answer is not [done], when
   it is answered twice or not at all, or when the server sends an error
   or shuts down early. *)
let drive c requests ~seconds =
  let inflight : (string, float * Request.t) Hashtbl.t = Hashtbl.create 8 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 65536 in
  let replies = ref [] and failures = ref [] and sent = ref 0 in
  let pending = ref requests in
  let t0 = now_ns () in
  let deadline = t0 +. (seconds *. 1e9) in
  let last = ref t0 in
  let fail why = failures := why :: !failures in
  let rec fill () =
    match !pending with
    | r :: rest when Hashtbl.length inflight < window && now_ns () < deadline ->
      pending := rest;
      Hashtbl.replace inflight r.Request.id (now_ns (), r);
      incr sent;
      (* a peer that has gone away leaves the request unanswered; the
         read side then sees the end of the stream *)
      (try write_all c.fd (Wire.solve_frame r ^ "\n")
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> pending := []);
      fill ()
    | _ -> ()
  in
  let on_line line =
    match Wire.parse_reply line with
    | Ok (Wire.Result { id; status; rung; makespan; solve_ns; queue_wait_ns; _ }) -> (
      let t = now_ns () in
      match Hashtbl.find_opt inflight id with
      | Some (t_sent, req) ->
        Hashtbl.remove inflight id;
        Hashtbl.replace seen id ();
        last := t;
        if status <> "done" then fail (Printf.sprintf "%s answered %s" id status)
        else
          replies :=
            {
              req;
              at_ns = t -. t0;
              rtt_ns = t -. t_sent;
              makespan;
              rung;
              solve_ns = Int64.to_float solve_ns;
              queue_wait_ns = Int64.to_float queue_wait_ns;
            }
            :: !replies
      | None ->
        fail (if Hashtbl.mem seen id then id ^ " answered twice" else id ^ " answered but never sent"))
    | Ok (Wire.Shutdown { reason; _ }) -> fail ("server shut down early: " ^ reason)
    | Ok (Wire.Error_frame { error; _ }) -> fail ("error frame: " ^ error)
    | Ok _ -> ()
    | Error msg -> fail ("unparseable reply: " ^ msg)
  in
  fill ();
  let rec loop () =
    if Hashtbl.length inflight > 0 then
      match read_lines c ~timeout:10. with
      | None -> fail "server closed the connection"
      | Some [] -> fail "no reply within 10 s"
      | Some lines ->
        List.iter on_line lines;
        fill ();
        loop ()
  in
  loop ();
  Hashtbl.iter (fun id _ -> fail (id ^ " unanswered")) inflight;
  (List.rev !replies, !sent, List.rev !failures, (!last -. t0) /. 1e9)

let run_phase ~dir ~seed ~seconds ~traced requests =
  let s = start ~dir ~seed ~traced in
  let w0 = Gc.minor_words () and gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let replies, sent, failures, wall_s =
    try drive s.conn requests ~seconds
    with e ->
      (try ignore (finish s) with _ -> ());
      raise e
  in
  let client_words = Gc.minor_words () -. w0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  let served, failures =
    match finish s with
    | exception e -> (None, failures @ [ Printexc.to_string e ])
    | v ->
      (* the server's own count catches an answer sent after the client
         stopped listening *)
      let extra = v.summary.Server.answers - sent in
      ( Some v,
        if extra > 0 then failures @ [ Printf.sprintf "server sent %d answers more than requested" extra ]
        else failures )
  in
  let journal_bytes = journal_bytes dir in
  remove_tree dir;
  {
    replies;
    sent;
    failures;
    wall_s;
    server = Option.map (fun v -> v.summary) served;
    words = client_words +. (match served with Some v -> v.words | None -> 0.);
    majors = majors + (match served with Some v -> v.majors | None -> 0);
    server_rss_mb = (match served with Some v -> v.rss_mb | None -> 0.);
    journal_bytes;
    report = (match served with Some v -> v.report | None -> Report.empty);
  }

type verified = { jobs : int; ratio : float; line : string; slice : int }

(* Re-solve every answered request in process and hold the server's
   answer to it: the exact checker passes, makespan <= certificate, and the
   server reported the same makespan from the requested rung. *)
let verify (r : reply) =
  let req = r.req in
  match
    let inst = Layer.time "service.realize" (fun () -> Request.instance req) in
    let res = Solver.solve ~algorithm:req.Request.algorithm req.Request.variant inst in
    (inst, res, Checker.check req.Request.variant inst res.Solver.schedule)
  with
  | exception e -> Error (req.Request.id ^ ": re-solve raised " ^ Printexc.to_string e)
  | _, _, Error (v :: _) -> Error (req.Request.id ^ ": checker: " ^ Checker.violation_to_string v)
  | _, _, Error [] -> Error (req.Request.id ^ ": checker: empty violation list")
  | inst, res, Ok () ->
    let makespan = Schedule.makespan res.Solver.schedule in
    let shown = Rat.to_string makespan in
    if Rat.( > ) makespan res.Solver.certificate then Error (req.Request.id ^ ": makespan > certificate")
    else if r.makespan <> Some shown then
      Error
        (Printf.sprintf "%s: server makespan %s, in-process %s" req.Request.id
           (Option.value r.makespan ~default:"none") shown)
    else if r.rung <> Some "requested" then
      Error (req.Request.id ^ ": answered from rung " ^ Option.value r.rung ~default:"none")
    else
      let lb = Lower_bounds.lower_bound req.Request.variant inst in
      Ok
        {
          jobs = Instance.n inst;
          ratio = Rat.to_float (Rat.div makespan lb);
          line = req.Request.id ^ "\t" ^ shown;
          slice = int_of_float (r.at_ns /. slice_ns);
        }

(* The whole slices of a run of [wall_s] seconds; the last, partial one is
   left out. *)
let whole_slices wall_s = int_of_float (wall_s *. 1e9 /. slice_ns)

(* Median over the whole slices of certified jobs per second. *)
let slice_throughput ok ~wall_s =
  let n = whole_slices wall_s in
  if n = 0 then float_of_int (List.fold_left (fun a v -> a + v.jobs) 0 ok) /. wall_s
  else begin
    let jobs = Array.make n 0 in
    List.iter (fun v -> if v.slice < n then jobs.(v.slice) <- jobs.(v.slice) + v.jobs) ok;
    Out.median (Array.to_list (Array.map (fun j -> float_of_int j *. 1e9 /. slice_ns) jobs))
  end

(* Median over the whole slices of each slice's p99 round trip, in ms. *)
let slice_p99_ms replies ~wall_s =
  let n = whole_slices wall_s in
  let rtt_ms r = r.rtt_ns /. 1e6 in
  if n = 0 then Out.percentile 99. (List.map rtt_ms replies)
  else begin
    let rtts = Array.make n [] in
    List.iter
      (fun r ->
        let i = int_of_float (r.at_ns /. slice_ns) in
        if i < n then rtts.(i) <- rtt_ms r :: rtts.(i))
      replies;
    Out.median (Array.to_list (Array.map (Out.percentile 99.) rtts))
  end

let verify_all p =
  let ok, errs = List.partition_map (fun r -> match verify r with Ok v -> Left v | Error e -> Right e) p.replies in
  (ok, p.failures @ errs)

(* Per-call costs of the wire codec, timed from here on the frames of the
   first [quality_prefix] answered requests. *)
let codec_pass p =
  List.iteri
    (fun i r ->
      if i < quality_prefix then begin
        let frame = Wire.solve_frame r.req in
        ignore (Layer.time "net.wire_decode" (fun () -> Wire.parse_frame frame));
        let outcome =
          {
            Runtime.request = r.req;
            status = Runtime.Done;
            rung = r.rung;
            makespan = r.makespan;
            routed = "requested";
            retries_used = 0;
            degraded = false;
            from_checkpoint = false;
            error = None;
            latency_ns = Int64.of_float r.solve_ns;
            queue_wait_ns = Int64.of_float r.queue_wait_ns;
          }
        in
        ignore (Layer.time "net.wire_encode" (fun () -> Wire.result_frame outcome))
      end)
    p.replies

(* One set-up: generate the request stream and start a server until it
   answers a ping. Returns the stream, the set-up time in seconds and its
   two parts in milliseconds. *)
let setup_once ~dir ~seed =
  let t0 = now_ns () in
  let requests = Request.soak_stream ~seed ~requests:stream_length () in
  let t1 = now_ns () in
  let s = start ~dir ~seed ~traced:false in
  let t2 = now_ns () in
  ignore (finish s);
  remove_tree dir;
  (requests, (t2 -. t0) /. 1e9, (t1 -. t0) /. 1e6, (t2 -. t1) /. 1e6)

(* Set-ups timed before the measurement, and again after it. *)
let setup_reps = 10

let us x = x /. 1e3

let span_total (report : Report.t) suffix =
  List.fold_left
    (fun acc (path, (s : Report.span_total)) ->
      if path = suffix || String.ends_with ~suffix:("/" ^ suffix) path then acc +. Int64.to_float s.Report.ns
      else acc)
    0. report.Report.spans

let run ~seed ~seconds ~trace ~workdir =
  (* every set-up generates the same stream; the run drives the first *)
  let stream = ref [] in
  let setups k =
    List.init setup_reps (fun i ->
        let dir = Filename.concat workdir (Printf.sprintf "setup%d" (k + i)) in
        let requests, s, g, t = setup_once ~dir ~seed in
        if !stream = [] then stream := requests;
        (s, g, t))
  in
  let before = setups 0 in
  let requests = !stream in
  Out.say "stream: %d requests generated" (List.length requests);
  (* the other half of the set-ups runs after the measurement, so their
     median spans the run rather than one moment of it *)
  let setup_stats () =
    let all = before @ setups setup_reps in
    let med f = Out.median (List.map f all) in
    Out.say "set-up median over %d: %.4f s" (List.length all) (med (fun (s, _, _) -> s));
    (med (fun (s, _, _) -> s), med (fun (_, g, _) -> g), med (fun (_, _, t) -> t))
  in
  let phase ~traced ~seconds name =
    run_phase ~dir:(Filename.concat workdir name) ~seed ~seconds ~traced requests
  in
  let report_failures fs = List.iteri (fun i f -> if i < 20 then Out.say "  FAILED: %s" f) fs in
  let ticks = Out.cpu_ticks () in
  if not trace then begin
    let p = phase ~traced:false ~seconds "timed" in
    Out.steal_since ticks;
    let setup_s, _, _ = setup_stats () in
    let ok, failures = verify_all p in
    report_failures failures;
    let failed = min p.sent (List.length failures) in
    let jobs = List.fold_left (fun a v -> a + v.jobs) 0 ok in
    let rtt = List.map (fun r -> r.rtt_ns /. 1e6) p.replies in
    let prefix = List.filteri (fun i _ -> i < quality_prefix) ok in
    Out.say "requests: %d sent, %d answered in %.2f s; latency samples: %d, over %d whole %g s slices"
      p.sent (List.length p.replies) p.wall_s (List.length rtt) (whole_slices p.wall_s) (slice_ns /. 1e9);
    Out.say "whole run: %.1f jobs/s, p99 %.4f ms" (float_of_int jobs /. p.wall_s) (Out.percentile 99. rtt);
    Out.say "error_rate: %d/%d" failed p.sent;
    Out.say "makespan digest: %s over the first %d answers" (Out.digest (List.map (fun v -> v.line) prefix))
      (List.length prefix);
    let values =
      [
        ("setup_s", setup_s);
        ("throughput_jobs_per_s", slice_throughput ok ~wall_s:p.wall_s);
        ("latency_p50_ms", Out.median rtt);
        ("latency_p99_ms", slice_p99_ms p.replies ~wall_s:p.wall_s);
        ( "makespan_ratio",
          List.fold_left (fun a v -> a +. v.ratio) 0. prefix /. float_of_int (max 1 (List.length prefix)) );
        ("success_rate", float_of_int (p.sent - failed) /. float_of_int (max 1 p.sent));
        ("peak_rss_mb", Out.peak_rss_mb () +. p.server_rss_mb);
        ("alloc_words_per_job", if jobs > 0 then p.words /. float_of_int jobs else 0.);
      ]
    in
    Out.result ~trace:false ~correct:(failed = 0) ~attempted:p.sent ~failed values
  end
  else begin
    let untraced = phase ~traced:false ~seconds:(seconds /. 2.) "untraced" in
    Layer.on := true;
    Layer.reset ();
    let p = phase ~traced:true ~seconds:(seconds /. 2.) "traced" in
    Out.steal_since ticks;
    let _, gen_ms, start_ms = setup_stats () in
    let _, failures0 = verify_all untraced in
    let _, failures = verify_all p in
    codec_pass p;
    Layer.on := false;
    let failures = failures0 @ failures in
    report_failures failures;
    let sent = untraced.sent + p.sent in
    let failed = min sent (List.length failures) in
    let n = float_of_int (max 1 (List.length p.replies)) in
    let field f = List.map f p.replies in
    let mean l = List.fold_left ( +. ) 0. l /. n in
    let rtt = field (fun r -> r.rtt_ns) in
    let solve = field (fun r -> r.solve_ns) and wait = field (fun r -> r.queue_wait_ns) in
    let counter name = float_of_int (Report.counter p.report name) /. n in
    let search_ms = span_total p.report "solve/search" /. n /. 1e6 in
    let polish_ms = span_total p.report "solve/polish" /. n /. 1e6 in
    let won_two = counter "solver.won_two_approx" and won_con = counter "solver.won_construction" in
    let decode_us = 1e3 *. Layer.ms_per_call "net.wire_decode" in
    let encode_us = 1e3 *. Layer.ms_per_call "net.wire_encode" in
    let realize_us = 1e3 *. Layer.ms_per_call "service.realize" in
    let p50 l = Out.median l and p99 l = Out.percentile 99. l in
    let server_values =
      match p.server with
      | None -> []
      | Some s ->
        let svc = s.Server.service in
        let flush =
          match List.assoc_opt "service.journal.flush_ns" svc.Runtime.hists with
          | Some h when h.Bss_obs.Hist.count > 0 -> h.Bss_obs.Hist.sum /. float_of_int h.Bss_obs.Hist.count
          | _ -> 0.
        in
        [
          ("service.journal_flush_us", us flush);
          ( "service.journal_bytes_per_request",
            float_of_int p.journal_bytes /. float_of_int (max 1 svc.Runtime.completed) );
          ("net.frames_read", float_of_int s.Server.frames_read);
          ("net.frames_written", float_of_int s.Server.frames_written);
          ("net.dedup_hits", float_of_int s.Server.dedup_hits);
          ("net.reconnects", 0.);
          ("service.retries", float_of_int svc.Runtime.retries);
          ("service.rejected", float_of_int svc.Runtime.rejected);
          ("service.waves", float_of_int svc.Runtime.waves);
          ("service.queue_peak", float_of_int svc.Runtime.queue_peak);
        ]
    in
    let rtt_ms_p50 l = p50 (List.map (fun r -> r.rtt_ns /. 1e6) l) in
    Out.say "traced requests: %d; untraced: %d; error_rate: %d/%d" (List.length p.replies)
      (List.length untraced.replies) failed sent;
    let values =
      [
        ("workloads.generate_ms", gen_ms);
        ("net.server_start_ms", start_ms);
        ("core.search_ms", search_ms);
        ("core.polish_ms", polish_ms);
        ("core.solver_share", (search_ms +. polish_ms) *. 1e6 /. mean rtt);
        ("core.polish_fallback_win_ratio", if won_two +. won_con > 0. then won_two /. (won_two +. won_con) else 0.);
        ("gc.major_collections_per_op", float_of_int p.majors /. n);
        ("net.wire_decode_us", decode_us);
        ("net.wire_encode_us", encode_us);
        ("service.realize_us", realize_us);
        ( "net.overhead_us_p50",
          us (p50 (List.map (fun r -> r.rtt_ns -. r.solve_ns -. r.queue_wait_ns) p.replies)) );
        ("service.solve_us_p50", us (p50 solve));
        ("service.solve_us_p99", us (p99 solve));
        ("service.queue_wait_us_p50", us (p50 wait));
        ("service.queue_wait_us_p99", us (p99 wait));
      ]
      @ server_values
      @ [
          ("probe.solve_ms", span_total p.report "solve" /. n /. 1e6);
          ("probe.compaction_runs", counter "compaction.runs");
          ("probe.won_two_approx", won_two);
          ("probe.won_construction", won_con);
          ( "unattributed_ms",
            (mean rtt -. mean solve -. mean wait) /. 1e6 -. ((decode_us +. encode_us) /. 1e3) );
          ("trace_overhead_ms", rtt_ms_p50 p.replies -. rtt_ms_p50 untraced.replies);
        ]
    in
    Out.result ~trace:true ~correct:(failed = 0) ~attempted:sent ~failed values
  end
