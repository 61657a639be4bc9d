(* Checks that the benchmark's own checks can fail: a delay put around one
   layer call is attributed to that layer, a corrupted schedule raises the
   error rate, and the net client counts duplicated, shed, unanswered and
   wrong answers as failures. Run with [perfbench.exe --selftest]. *)

open Bss_util
open Bss_instances
module Request = Bss_service.Request
module Runtime = Bss_service.Runtime
module Wire = Bss_net.Wire

let ok = ref true

let check name cond detail =
  Out.say "%s %s%s" (if cond then "ok  " else "FAIL") name (if cond then "" else ": " ^ detail);
  if not cond then ok := false

let small_text () =
  Instance.to_string (Bss_workloads.Generator.uniform.generate (Prng.create 11) ~m:8 ~n:4000)

let delay = 0.05

(* The layers the benchmark times, with the metric each one feeds. *)
let timed_layers =
  [
    ("instances.parse", "instances.parse_ms");
    ("core.solve", "core.solve_ms");
    ("instances.checker", "instances.checker_ms");
    ("instances.render", "instances.render_ms");
    ("core.compaction", "core.compaction_ms");
    ("core.two_approx", "core.two_approx_ms");
  ]

let watched = List.map snd timed_layers @ [ "unattributed_ms" ]

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let attribution () =
  let variant = Variant.Splittable in
  let text = small_text () in
  Layer.on := true;
  let traced () = snd (Solve_load.traced_values variant text) in
  ignore (traced ());
  let base = traced () in
  List.iter
    (fun (layer, metric) ->
      Layer.injected := [ (layer, delay) ];
      let v = traced () in
      Layer.injected := [];
      let diff m = 1e-3 *. (List.assoc m v -. List.assoc m base) in
      let grew = diff metric in
      check
          (Printf.sprintf "delay in %s lands on %s" layer metric)
          (grew >= delay *. 0.9)
          (Printf.sprintf "%s grew by %.4f s" metric grew);
        List.iter
          (fun m ->
            if m <> metric then
              check
                (Printf.sprintf "delay in %s leaves %s alone" layer m)
                (Float.abs (diff m) < delay /. 2.)
                (Printf.sprintf "%s moved by %.4f s" m (diff m)))
          watched)
    timed_layers;
  Layer.on := false

(* Drop every segment of machine 0: the exact checker sees missing volume. *)
let drop_machine s =
  let s = Schedule.copy s in
  ignore (Schedule.remove_machine_segments s 0);
  s

(* Start machine 0's segments a makespan later: still feasible for the
   splittable variant, but longer than the certificate allows. *)
let delay_machine s =
  let s = Schedule.copy s in
  let shift = Schedule.makespan s in
  List.iter
    (fun (seg : Schedule.seg) -> Schedule.add s ~machine:0 { seg with start = Rat.add seg.start shift })
    (Schedule.remove_machine_segments s 0);
  s

let corruption () =
  let variant = Variant.Splittable in
  let text = small_text () in
  let good () = Solve_load.solve_op variant text in
  let dropped = Solve_load.solve_op ~corrupt:drop_machine variant text in
  let late = Solve_load.solve_op ~corrupt:delay_machine variant text in
  check "dropped segments fail the checker"
    (match dropped.Solve_load.failure with Some f -> String.starts_with ~prefix:"checker" f | None -> false)
    "no checker failure";
  check "a schedule past its certificate fails"
    (match late.Solve_load.failure with Some f -> String.starts_with ~prefix:"makespan" f | None -> false)
    "no certificate failure";
  let ops = [ good (); dropped; late; good () ] in
  let values, failed = Solve_load.summarize ops ~window_s:1. ~setup_s:1. in
  check "corrupted schedules raise the error rate"
    (failed = 2 && List.assoc "success_rate" values = 0.5)
    (Printf.sprintf "failed %d, success_rate %g" failed (List.assoc "success_rate" values));
  check "failures do not stop the run" ((List.nth ops 3).Solve_load.failure = None) "last op failed"

let outcome (r : Request.t) =
  {
    Runtime.request = r;
    status = Runtime.Done;
    rung = Some "requested";
    makespan = Some "1";
    routed = "requested";
    retries_used = 0;
    degraded = false;
    from_checkpoint = false;
    error = None;
    latency_ns = 1000L;
    queue_wait_ns = 1000L;
  }

(* A scripted peer answers the first request twice, sheds the second and
   hangs up on the third. *)
let net_accounting () =
  let requests = Request.soak_stream ~seed:5 ~requests:4 () in
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let peer =
    Domain.spawn (fun () ->
        let c = { Net_load.fd = theirs; rbuf = Buffer.create 256 } in
        let rec serve i =
          match Net_load.read_lines c ~timeout:5. with
          | None | Some [] -> ()
          | Some lines ->
            let i =
              List.fold_left
                (fun i line ->
                  match Wire.parse_frame line with
                  | Ok (Wire.Solve r) ->
                    (match i with
                    | 0 ->
                      let f = Wire.result_frame (outcome r) ^ "\n" in
                      Net_load.write_all theirs (f ^ f)
                    | 1 -> Net_load.write_all theirs (Wire.shed_frame r ~capacity:1 ~pending:0 ^ "\n")
                    | _ -> ());
                    i + 1
                  | _ -> i)
                i lines
            in
            if i < 3 then serve i
        in
        serve 0;
        Unix.close theirs)
  in
  let replies, sent, failures, _ =
    Net_load.drive { Net_load.fd = mine; rbuf = Buffer.create 256 } requests ~seconds:5.
  in
  Domain.join peer;
  Unix.close mine;
  let has sub = List.exists (fun f -> contains f sub) failures in
  check "net: a duplicated answer fails" (has "twice") (String.concat "; " failures);
  check "net: a shed answer fails" (has "answered shed") (String.concat "; " failures);
  check "net: an unanswered request fails" (has "unanswered") (String.concat "; " failures);
  check "net: only the first request succeeded"
    (List.length replies = 1 && sent = 4)
    (Printf.sprintf "%d replies, %d sent" (List.length replies) sent);
  (* a wrong makespan from the server fails verification *)
  let r = List.hd requests in
  let inst = Request.instance r in
  let res = Bss_core.Solver.solve ~algorithm:r.Request.algorithm r.Request.variant inst in
  let right = Rat.to_string (Schedule.makespan res.Bss_core.Solver.schedule) in
  let reply makespan =
    {
      Net_load.req = r;
      at_ns = 1.;
      rtt_ns = 1.;
      makespan = Some makespan;
      rung = Some "requested";
      solve_ns = 0.;
      queue_wait_ns = 0.;
    }
  in
  check "net: the right makespan verifies" (Result.is_ok (Net_load.verify (reply right))) "rejected";
  check "net: a wrong makespan fails verification"
    (Result.is_error (Net_load.verify (reply (right ^ "1"))))
    "accepted"

let run () =
  attribution ();
  corruption ();
  net_accounting ();
  Out.say "selftest: %s" (if !ok then "all checks passed" else "FAILED");
  !ok
