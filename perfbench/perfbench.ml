(* The benchmark's entry point; perfbench/run.py builds and runs it.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench.exe --selftest

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of standard output is the result object. *)

open Bss_instances

type kind = Solve of Solve_load.spec | Net

type workload = { name : string; kind : kind; record : string }

let solve name variant record =
  {
    name;
    kind = Solve { Solve_load.variant; family = Bss_workloads.Generator.uniform; m = 64; n = 100_000 };
    record;
  }

(* Why each workload is here, as BENCHMARK.json records it. The solve
   workloads use [uniform]: it generates 10^5 jobs in milliseconds, whereas
   [zipf] is quadratic in n (see README.md). *)
let workloads =
  [
    solve "solve-split" Variant.Splittable
      "uniform m=64 n=1e5, splittable 3/2 (Thm 3), in process, closed loop, 1 op in flight: \
       polish is ~90% of the solve, so compaction shows and search barely does";
    solve "solve-pmtn" Variant.Preemptive
      "same instances, preemptive 3/2 (Thm 6): search/polish ~40/60, compaction keeps job \
       pieces from overlapping; the only workload reaching Pmtn_cj/Pmtn_dual/Pmtn_nice at scale";
    solve "solve-nonp" Variant.Nonpreemptive
      "same instances, non-preemptive 3/2 (Thm 8): search with 17 dual calls is ~85% of the \
       solve, so reuse across nested guesses shows and polish barely does";
    {
      name = "net-stream";
      kind = Net;
      record =
        "soak_stream (9 families, all variants, n 8-32) over bss-net/1 to a server process: 1 \
         worker, journal flushed every 64; 1 connection, window 2; wire and server loop are most \
         of each request";
    };
  ]

let usage =
  "perfbench.exe --workload <"
  ^ String.concat "|" (List.map (fun w -> w.name) workloads)
  ^ "> --seed <int> --seconds <int> --trace <0|1>\nperfbench.exe --selftest"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let rec parse acc = function
  | [] -> acc
  | [ "--selftest" ] -> ("selftest", "1") :: acc
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | arg :: _ -> fail ("unexpected argument " ^ arg)

let () =
  (* a peer that vanishes must surface as EPIPE, not end the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  if List.mem_assoc "selftest" args then exit (if Selftest.run () then 0 else 1);
  let get key =
    match List.assoc_opt key args with Some v -> v | None -> fail ("missing --" ^ key)
  in
  let int key =
    match int_of_string_opt (get key) with
    | Some v -> v
    | None -> fail ("--" ^ key ^ " wants an integer")
  in
  (* net-stream's server process (Net_load.start) *)
  (match List.assoc_opt "serve-net" args with
  | Some dir ->
    Net_load.serve_main ~dir ~seed:(int "seed") ~traced:(int "trace" = 1);
    exit 0
  | None -> ());
  let name = get "workload" in
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ name)
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> fail "--trace wants 0 or 1" in
  if seconds <= 0. then fail "--seconds must be positive";
  Out.say "workload %s, seed %d, %g s, tracing %s" w.name seed seconds (if trace then "on" else "off");
  Out.say "  %s" w.record;
  match w.kind with
  | Solve spec -> Solve_load.run spec ~seed ~seconds ~trace
  | Net ->
    (* run files (socket, journal) stay inside the checkout, under the
       ignored build directory *)
    let workdir = Filename.concat ".bench_build" (Printf.sprintf "perfbench-%d" (Unix.getpid ())) in
    Fun.protect
      ~finally:(fun () -> try Net_load.remove_tree workdir with _ -> ())
      (fun () -> Net_load.run ~seed ~seconds ~trace ~workdir)
