(* Metric names, units and the result line. The two lists below are the
   ones BENCHMARK.json declares; every run prints every metric of its
   kind, so a metric that does not apply to a workload reads 0 and is
   marked n/a in the human-readable lines. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_jobs_per_s", "jobs/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("makespan_ratio", "ratio");
    ("success_rate", "ratio");
    ("peak_rss_mb", "MB");
    ("alloc_words_per_job", "words/job");
  ]

let per_layer =
  [
    ("workloads.generate_ms", "ms");
    ("instances.to_string_ms", "ms");
    ("net.server_start_ms", "ms");
    ("instances.parse_ms", "ms");
    ("instances.checker_ms", "ms");
    ("instances.render_ms", "ms");
    ("instances.parse_alloc_words", "words");
    ("instances.checker_alloc_words", "words");
    ("instances.render_alloc_words", "words");
    ("core.solve_ms", "ms");
    ("core.search_ms", "ms");
    ("core.search_dual_calls", "count");
    ("core.dual_ms_per_call", "ms");
    ("core.search_alloc_words", "words");
    ("core.polish_ms", "ms");
    ("core.compaction_ms", "ms");
    ("core.compaction_segments", "count");
    ("core.compaction_alloc_words", "words");
    ("core.two_approx_ms", "ms");
    ("core.two_approx_alloc_words", "words");
    ("core.polish_fallback_win_ratio", "ratio");
    ("core.search_share", "ratio");
    ("core.compaction_two_approx_share", "ratio");
    ("core.solver_share", "ratio");
    ("gc.major_collections_per_op", "count");
    ("net.wire_decode_us", "us");
    ("net.wire_encode_us", "us");
    ("service.realize_us", "us");
    ("net.overhead_us_p50", "us");
    ("service.solve_us_p50", "us");
    ("service.solve_us_p99", "us");
    ("service.queue_wait_us_p50", "us");
    ("service.queue_wait_us_p99", "us");
    ("service.journal_flush_us", "us");
    ("service.journal_bytes_per_request", "bytes");
    ("net.frames_read", "count");
    ("net.frames_written", "count");
    ("net.dedup_hits", "count");
    ("net.reconnects", "count");
    ("service.retries", "count");
    ("service.rejected", "count");
    ("service.waves", "count");
    ("service.queue_peak", "count");
    ("probe.solve_ms", "ms");
    ("probe.compaction_runs", "count");
    ("probe.won_two_approx", "count");
    ("probe.won_construction", "count");
    ("unattributed_ms", "ms");
    ("trace_overhead_ms", "ms");
  ]

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* JSON numbers need finite values; %.17g keeps every digit. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* [result ~trace ~correct ~attempted ~failed values] prints the metric
   table and then, as the last line of standard output, the result
   object the benchmark contract asks for. *)
let result ~trace ~correct ~attempted ~failed values =
  let declared = if trace then per_layer else end_to_end in
  let fields =
    List.map
      (fun (name, unit_) ->
        let v = List.assoc_opt name values in
        say "  %-36s %16s %s%s" name
          (number (Option.value v ~default:0.))
          unit_
          (if v = None then "  (n/a on this workload)" else "");
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (number (Option.value v ~default:0.))
          unit_)
      declared
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let median = function [] -> 0. | l -> Bss_util.Stats.median (Array.of_list l)

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile p = function [] -> 0. | l -> Bss_util.Stats.percentile p (Array.of_list l)

(* Peak resident set of this process, in MiB (VmHWM). Each workload runs
   in its own process, so no workload's peak carries into another's. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Machine-wide CPU time so far as (stolen by the hypervisor, total), in
   clock ticks from /proc/stat; (0, 0) where it cannot be read. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    let fields =
      List.filter_map int_of_string_opt (List.filter (( <> ) "") (String.split_on_char ' ' line))
    in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, List.fold_left ( + ) 0 fields)

(* [steal_since t0] reports the share of CPU time the hypervisor took since
   [t0 = cpu_ticks ()]: on a shared machine it explains a slow run. *)
let steal_since (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 > t0 then
    say "cpu steal during the measurement: %.1f%%"
      (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
