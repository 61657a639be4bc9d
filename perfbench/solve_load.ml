(* The solve workloads: one n=10^5 instance per seed, solved in process
   through the library calls [bss solve --json] makes (bin/cli.ml):
   Instance.of_string -> Solver.solve -> Checker.check ->
   Metrics.compute + Lower_bounds.lower_bound + JSON. *)

open Bss_util
open Bss_instances
open Bss_core
module Probe = Bss_obs.Probe
module Report = Bss_obs.Report

type spec = { variant : Variant.t; family : Bss_workloads.Generator.spec; m : int; n : int }

type op = {
  wall_ms : float;
  words : float;  (** minor-heap words the operation allocated *)
  jobs : int;
  makespan : Rat.t;
  ratio : float;  (** makespan / lower bound *)
  dual_calls : int;
  failure : string option;
}

(* The same fields [bss solve --json] prints. *)
let render variant inst (r : Solver.result) sched =
  let lb = Lower_bounds.lower_bound variant inst in
  let metrics = Metrics.compute inst sched in
  let rat x = Json.str (Rat.to_string x) in
  let json =
    Json.obj
      [
        ("variant", Json.str (Variant.to_string variant));
        ("algorithm", Json.str (Solver.algorithm_name ~algorithm:Solver.Approx3_2 variant));
        ("makespan", rat metrics.Metrics.makespan);
        ("certificate", rat r.Solver.certificate);
        ("guarantee", rat r.Solver.guarantee);
        ("lower_bound", rat lb);
        ("ratio_vs_lower_bound", Json.float (Metrics.ratio_vs lb metrics));
        ("dual_calls", Json.int r.Solver.dual_calls);
        ( "metrics",
          Json.obj
            [
              ("total_load", rat metrics.Metrics.total_load);
              ("total_setup_time", rat metrics.Metrics.total_setup_time);
              ("setup_count", Json.int metrics.Metrics.setup_count);
              ("preemption_count", Json.int metrics.Metrics.preemption_count);
              ("machines_used", Json.int metrics.Metrics.machines_used);
              ("idle_within_makespan", rat metrics.Metrics.idle_within_makespan);
            ] );
      ]
  in
  (json, lb, metrics.Metrics.makespan)

(* One operation: parse -> render. [corrupt] stands between the solver
   and the checker; only the self-test passes one. A failure is a checker
   violation, a makespan above the certificate, or an exception; it is
   recorded, never raised. *)
let solve_op ?(corrupt = Fun.id) variant text =
  let w0 = Gc.minor_words () in
  let t0 = Layer.now_ns () in
  let result =
    match
      let inst = Layer.time "instances.parse" (fun () -> Instance.of_string text) in
      let r = Layer.time "core.solve" (fun () -> Solver.solve ~algorithm:Solver.Approx3_2 variant inst) in
      let sched = corrupt r.Solver.schedule in
      let verdict = Layer.time "instances.checker" (fun () -> Checker.check variant inst sched) in
      let json, lb, makespan = Layer.time "instances.render" (fun () -> render variant inst r sched) in
      ignore (Sys.opaque_identity json);
      (inst, r, verdict, lb, makespan)
    with
    | v -> Ok v
    | exception e -> Error ("exception: " ^ Printexc.to_string e)
  in
  let wall_ms = (Layer.now_ns () -. t0) /. 1e6 in
  let words = Gc.minor_words () -. w0 in
  let failed why =
    { wall_ms; words; jobs = 0; makespan = Rat.zero; ratio = 0.; dual_calls = 0; failure = Some why }
  in
  match result with
  | Error why -> failed why
  | Ok (_, _, Error (v :: _), _, _) -> failed ("checker: " ^ Checker.violation_to_string v)
  | Ok (_, _, Error [], _, _) -> failed "checker: empty violation list"
  | Ok (_, r, Ok (), _, makespan) when Rat.( > ) makespan r.Solver.certificate ->
    failed
      (Printf.sprintf "makespan %s > certificate %s" (Rat.to_string makespan)
         (Rat.to_string r.Solver.certificate))
  | Ok (inst, r, Ok (), lb, makespan) ->
    {
      wall_ms;
      words;
      jobs = Instance.n inst;
      makespan;
      ratio = Rat.to_float (Rat.div makespan lb);
      dual_calls = r.Solver.dual_calls;
      failure = None;
    }

(* The constructions Solver.solve searches with (Thms 3, 6 and 8). *)
let search variant inst =
  match variant with
  | Variant.Splittable -> (Splittable_cj.solve inst).Splittable_cj.schedule
  | Variant.Preemptive -> (Pmtn_cj.solve inst).Pmtn_cj.schedule
  | Variant.Nonpreemptive -> (Nonp_search.solve inst).Nonp_search.schedule

(* Per-call costs of the core layers, timed from here: one search, and one
   compaction of each of the two candidates the solver compares. The
   traced operation's program counters say how many such calls it made;
   the pass itself assumes nothing about how Solver.solve combines them.
   Returns the segments fed to compaction per call. *)
let layer_pass variant inst =
  let primary = Layer.time "core.search" (fun () -> search variant inst) in
  ignore (Layer.time "core.compaction" (fun () -> Compaction.compact variant inst primary));
  let fallback = Layer.time "core.two_approx" (fun () -> Two_approx.solve variant inst) in
  ignore (Layer.time "core.compaction" (fun () -> Compaction.compact variant inst fallback));
  let segs s = float_of_int (List.length (Schedule.all_segments s)) in
  (segs primary +. segs fallback) /. 2.

let span_ms (report : Report.t) path =
  match List.assoc_opt path report.Report.spans with
  | Some s -> Int64.to_float s.Report.ns /. 1e6
  | None -> 0.

(* The per-layer values of one traced operation. Program spans and
   counters are read beside the benchmark's own timings; nothing assumes
   they add up to the operation. *)
let traced_values variant text =
  Layer.reset ();
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let op, report = Probe.with_recording (fun () -> solve_op variant text) in
  let majors = float_of_int ((Gc.quick_stat ()).Gc.major_collections - gc0) in
  (* the operation's own layers, read before the layer pass resets them *)
  let inop =
    List.map
      (fun l -> (l, (Layer.ms l, Layer.words l)))
      [ "instances.parse"; "core.solve"; "instances.checker"; "instances.render" ]
  in
  let ms l = fst (List.assoc l inop) and words l = snd (List.assoc l inop) in
  let search_ms = span_ms report "solve/search" and polish_ms = span_ms report "solve/polish" in
  let counter = Report.counter report in
  let runs = float_of_int (counter "compaction.runs") in
  let won_two = float_of_int (counter "solver.won_two_approx") in
  let won_con = float_of_int (counter "solver.won_construction") in
  let fallbacks = won_two +. won_con in
  Layer.reset ();
  let segments = if op.failure = None then layer_pass variant (Instance.of_string text) else 0. in
  let compaction_ms = Layer.ms_per_call "core.compaction" *. runs in
  let two_approx_ms = Layer.ms_per_call "core.two_approx" *. fallbacks in
  let wall = op.wall_ms in
  let share x = if wall > 0. then x /. wall else 0. in
  let values =
    [
      ("instances.parse_ms", ms "instances.parse");
      ("instances.checker_ms", ms "instances.checker");
      ("instances.render_ms", ms "instances.render");
      ("instances.parse_alloc_words", words "instances.parse");
      ("instances.checker_alloc_words", words "instances.checker");
      ("instances.render_alloc_words", words "instances.render");
      ("core.solve_ms", ms "core.solve");
      ("core.search_ms", search_ms);
      ("core.search_dual_calls", float_of_int op.dual_calls);
      ("core.dual_ms_per_call", if op.dual_calls > 0 then search_ms /. float_of_int op.dual_calls else 0.);
      ("core.search_alloc_words", Layer.words "core.search");
      ("core.polish_ms", polish_ms);
      ("core.compaction_ms", compaction_ms);
      ("core.compaction_segments", segments *. runs);
      ("core.compaction_alloc_words", Layer.words_per_call "core.compaction" *. runs);
      ("core.two_approx_ms", two_approx_ms);
      ("core.two_approx_alloc_words", Layer.words_per_call "core.two_approx" *. fallbacks);
      ("core.polish_fallback_win_ratio", if fallbacks > 0. then won_two /. fallbacks else 0.);
      ("core.search_share", share search_ms);
      ("core.compaction_two_approx_share", share (compaction_ms +. two_approx_ms));
      ("core.solver_share", share (search_ms +. polish_ms));
      ("gc.major_collections_per_op", majors);
      ("probe.solve_ms", span_ms report "solve");
      ("probe.compaction_runs", runs);
      ("probe.won_two_approx", won_two);
      ("probe.won_construction", won_con);
      ( "unattributed_ms",
        wall -. ms "instances.parse" -. ms "core.solve" -. ms "instances.checker" -. ms "instances.render" );
    ]
  in
  (op, values)

let check_ops ops =
  List.iter
    (fun o -> match o.failure with Some why -> Out.say "  FAILED operation: %s" why | None -> ())
    ops

(* Set-ups timed before the measurement, and again after it. *)
let setup_reps = 10

(* Run [f] repeatedly until [seconds] have passed, at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Unix.gettimeofday () in
  let rec go acc k =
    if k >= min && Unix.gettimeofday () -. t0 >= seconds then List.rev acc else go (f () :: acc) (k + 1)
  in
  go [] 0

(* The end-to-end metrics of a timed run; also the failure count. *)
let summarize ops ~window_s ~setup_s =
  let good = List.filter (fun o -> o.failure = None) ops in
  let failed = List.length ops - List.length good in
  let jobs = List.fold_left (fun a o -> a + o.jobs) 0 good in
  let lat = List.map (fun o -> o.wall_ms) ops in
  let sum f = List.fold_left (fun a o -> a +. f o) 0. good in
  ( [
      ("setup_s", setup_s);
      ("throughput_jobs_per_s", float_of_int jobs /. window_s);
      ("latency_p50_ms", Out.median lat);
      ("latency_p99_ms", Out.percentile 99. lat);
      ("makespan_ratio", sum (fun o -> o.ratio) /. float_of_int (max 1 (List.length good)));
      ("success_rate", float_of_int (List.length good) /. float_of_int (max 1 (List.length ops)));
      ("peak_rss_mb", Out.peak_rss_mb ());
      ("alloc_words_per_job", if jobs > 0 then sum (fun o -> o.words) /. float_of_int jobs else 0.);
    ],
    failed )

(* One set-up: generate the instance and write its text. Returns the text,
   the set-up time in seconds and its two parts in milliseconds. *)
let setup_once spec ~seed =
  let t0 = Layer.now_ns () in
  let inst = spec.family.Bss_workloads.Generator.generate (Prng.create seed) ~m:spec.m ~n:spec.n in
  let t1 = Layer.now_ns () in
  let text = Instance.to_string inst in
  let t2 = Layer.now_ns () in
  (text, (t2 -. t0) /. 1e9, (t1 -. t0) /. 1e6, (t2 -. t1) /. 1e6)

let run spec ~seed ~seconds ~trace =
  let before = List.init setup_reps (fun _ -> setup_once spec ~seed) in
  let text, _, _, _ = List.hd before in
  Out.say "instance: %d bytes of text" (String.length text);
  (* the other half of the set-ups runs after the measurement, so their
     median spans the run rather than one moment of it *)
  let setup_stats () =
    let all = before @ List.init setup_reps (fun _ -> setup_once spec ~seed) in
    let deterministic = List.for_all (fun (t, _, _, _) -> String.equal t text) all in
    if not deterministic then Out.say "  FAILED: the generator gave different instances for one seed";
    let med f = Out.median (List.map f all) in
    Out.say "set-up median over %d: %.4f s" (List.length all) (med (fun (_, s, _, _) -> s));
    (deterministic, med (fun (_, s, _, _) -> s), med (fun (_, _, g, _) -> g), med (fun (_, _, _, t) -> t))
  in
  (* one unmeasured operation first, so the heap has grown to its working
     size before anything is measured *)
  ignore (solve_op spec.variant text);
  let ticks = Out.cpu_ticks () in
  if not trace then begin
    let t0 = Layer.now_ns () in
    let ops = repeat ~seconds ~min:3 (fun () -> solve_op spec.variant text) in
    let window_s = (Layer.now_ns () -. t0) /. 1e9 in
    Out.steal_since ticks;
    check_ops ops;
    let deterministic, setup_s, _, _ = setup_stats () in
    let values, failed = summarize ops ~window_s ~setup_s in
    Out.say "operations: %d in %.2f s (latency samples: %d; with fewer than 100, p99 is the maximum)"
      (List.length ops) window_s (List.length ops);
    Out.say "error_rate: %d/%d" failed (List.length ops);
    (* over the distinct makespans, so the digest does not depend on how
       many operations the run got through; a failed operation adds 0 *)
    let makespans = List.sort_uniq compare (List.map (fun o -> Rat.to_string o.makespan) ops) in
    Out.say "makespan digest: %s (distinct makespans: %s)" (Out.digest makespans)
      (String.concat " " makespans);
    Out.result ~trace:false ~correct:(failed = 0 && deterministic) ~attempted:(List.length ops) ~failed values
  end
  else begin
    let untimed = repeat ~seconds:(seconds /. 3.) ~min:1 (fun () -> solve_op spec.variant text) in
    Layer.on := true;
    let traced = repeat ~seconds:(seconds *. 2. /. 3.) ~min:1 (fun () -> traced_values spec.variant text) in
    Layer.on := false;
    Out.steal_since ticks;
    let deterministic, _, gen_ms, text_ms = setup_stats () in
    let ops = untimed @ List.map fst traced in
    check_ops ops;
    let failed = List.length (List.filter (fun o -> o.failure <> None) ops) in
    let names = List.map fst (snd (List.hd traced)) in
    let med name = Out.median (List.map (fun (_, vs) -> List.assoc name vs) traced) in
    let traced_wall = Out.median (List.map (fun (o, _) -> o.wall_ms) traced) in
    let untraced_wall = Out.median (List.map (fun o -> o.wall_ms) untimed) in
    Out.say "traced operations: %d; untraced: %d" (List.length traced) (List.length untimed);
    Out.say "error_rate: %d/%d" failed (List.length ops);
    Out.say "traced op wall median %.3f ms; untraced %.3f ms" traced_wall untraced_wall;
    let values =
      [ ("workloads.generate_ms", gen_ms); ("instances.to_string_ms", text_ms) ]
      @ List.map (fun n -> (n, med n)) names
      @ [ ("trace_overhead_ms", traced_wall -. untraced_wall) ]
    in
    Out.result ~trace:true ~correct:(failed = 0 && deterministic) ~attempted:(List.length ops) ~failed values
  end
