(* Tests for schedule compaction: feasibility preservation, monotone
   makespan, and the practical improvement it buys on the dual
   constructions. *)

open Bss_util
open Bss_instances
open Bss_core

let check = Alcotest.check
let rat_c = Alcotest.testable Rat.pp Rat.equal

let test_closes_gaps () =
  let inst = Instance.make ~m:1 ~setups:[| 2 |] ~jobs:[| (0, 3); (0, 4) |] in
  let s = Schedule.create 1 in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 5) ~dur:(r 2);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 10) ~dur:(r 3);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 20) ~dur:(r 4);
  let c = Compaction.compact Variant.Nonpreemptive inst s in
  Checker.check_exn Variant.Nonpreemptive inst c;
  check rat_c "gapless" (r 9) (Schedule.makespan c)

let test_respects_job_sequentiality () =
  (* job 0 preempted across two machines; its later piece must not be
     pulled before the earlier one ends *)
  let inst = Instance.make ~m:2 ~setups:[| 1 |] ~jobs:[| (0, 10); (0, 2) |] in
  let s = Schedule.create 2 in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 1);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 1) ~dur:(r 6);
  Schedule.add_setup s ~machine:1 ~cls:0 ~start:(r 0) ~dur:(r 1);
  Schedule.add_work s ~machine:1 ~job:1 ~start:(r 1) ~dur:(r 2);
  (* second piece of job 0 far in the future on machine 1 *)
  Schedule.add_work s ~machine:1 ~job:0 ~start:(r 20) ~dur:(r 4);
  Checker.check_exn Variant.Preemptive inst s;
  let c = Compaction.compact Variant.Preemptive inst s in
  Checker.check_exn Variant.Preemptive inst c;
  (* the piece lands exactly when its first piece ends: at 7, not at 3 *)
  let pieces = List.sort compare (Schedule.work_of_job c 0) in
  (match pieces with
  | [ (0, s1, _); (1, s2, _) ] ->
    check rat_c "first piece" (r 1) s1;
    check rat_c "second piece waits" (r 7) s2
  | _ -> Alcotest.fail "unexpected piece layout");
  check rat_c "makespan improved" (r 11) (Schedule.makespan c)

(* The oracle for the per-machine shift and the k-way merge: one global
   replay of every segment in (start, machine) order, each starting at
   max(machine_front, job_front), job_front ignored when splittable. *)
let reference variant inst sched =
  let m = Schedule.machines sched in
  let out = Schedule.create m in
  let machine_front = Array.make m Rat.zero in
  let job_front = Array.make (Instance.n inst) Rat.zero in
  let segments = Array.of_list (Schedule.all_segments sched) in
  Array.stable_sort
    (fun (u1, (s1 : Schedule.seg)) (u2, (s2 : Schedule.seg)) ->
      let c = Rat.compare s1.Schedule.start s2.Schedule.start in
      if c <> 0 then c else compare u1 u2)
    segments;
  Array.iter
    (fun (u, (seg : Schedule.seg)) ->
      let start =
        match (seg.Schedule.content, variant) with
        | Schedule.Work j, (Variant.Preemptive | Variant.Nonpreemptive) ->
          Rat.max machine_front.(u) job_front.(j)
        | Schedule.Work _, Variant.Splittable | Schedule.Setup _, _ -> machine_front.(u)
      in
      Schedule.add out ~machine:u { seg with Schedule.start };
      (match seg.Schedule.content with
      | Schedule.Work j -> job_front.(j) <- Rat.add start seg.Schedule.dur
      | Schedule.Setup _ -> ());
      machine_front.(u) <- Rat.add start seg.Schedule.dur)
    segments;
  out

let test_pmtn_unsorted_appends () =
  (* job 0 is preempted from machine 0 to machine 1, and every machine's
     segments are appended out of start order *)
  let inst = Instance.make ~m:3 ~setups:[| 1; 2 |] ~jobs:[| (0, 9); (0, 4); (1, 3); (1, 3) |] in
  let s = Schedule.create 3 in
  let r = Rat.of_int in
  Schedule.add_work s ~machine:1 ~job:0 ~start:(r 13) ~dur:(r 3);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 8) ~dur:(r 4);
  Schedule.add_work s ~machine:2 ~job:3 ~start:(r 10) ~dur:(r 3);
  Schedule.add_setup s ~machine:1 ~cls:0 ~start:(r 12) ~dur:(r 1);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 1) ~dur:(r 6);
  Schedule.add_setup s ~machine:2 ~cls:1 ~start:(r 5) ~dur:(r 2);
  Schedule.add_work s ~machine:1 ~job:2 ~start:(r 4) ~dur:(r 3);
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 1);
  Schedule.add_setup s ~machine:1 ~cls:1 ~start:(r 2) ~dur:(r 2);
  Checker.check_exn Variant.Preemptive inst s;
  let c = Compaction.compact Variant.Preemptive inst s in
  Checker.check_exn Variant.Preemptive inst c;
  check Alcotest.bool "equals the global replay" true (Schedule.equal c (reference Variant.Preemptive inst s));
  (* machine 1 is free at 6, but job 0's first piece runs until 7 *)
  (match List.sort compare (Schedule.work_of_job c 0) with
  | [ (0, s1, _); (1, s2, _) ] ->
    check rat_c "first piece" (r 1) s1;
    check rat_c "second piece waits for the first" (r 7) s2
  | _ -> Alcotest.fail "unexpected piece layout");
  check rat_c "makespan" (r 11) (Schedule.makespan c)

let prop_matches_global_replay =
  QCheck2.Test.make ~name:"compaction equals the global (start, machine) replay" ~count:300
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          let construction =
            match v with
            | Variant.Splittable -> (Splittable_cj.solve inst).Splittable_cj.schedule
            | Variant.Preemptive -> (Pmtn_cj.solve inst).Pmtn_cj.schedule
            | Variant.Nonpreemptive -> (Nonp_search.solve inst).Nonp_search.schedule
          in
          List.for_all
            (fun s -> Schedule.equal (Compaction.compact v inst s) (reference v inst s))
            [ construction; Two_approx.solve v inst ])
        Variant.all)

let prop_preserves_feasibility_never_longer =
  QCheck2.Test.make ~name:"compaction: feasible, never longer, idempotent" ~count:300
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          let raw =
            match v with
            | Variant.Splittable -> (Splittable_cj.solve inst).Splittable_cj.schedule
            | Variant.Preemptive -> (Pmtn_cj.solve inst).Pmtn_cj.schedule
            | Variant.Nonpreemptive -> (Nonp_search.solve inst).Nonp_search.schedule
          in
          let once = Compaction.compact v inst raw in
          let twice = Compaction.compact v inst once in
          Checker.is_feasible v inst once
          && Rat.( <= ) (Schedule.makespan once) (Schedule.makespan raw)
          && Rat.equal (Schedule.makespan twice) (Schedule.makespan once))
        Variant.all)

let prop_improves_dual_constructions =
  QCheck2.Test.make ~name:"solver with compaction at least matches raw duals" ~count:150
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          let raw =
            match v with
            | Variant.Splittable -> (Splittable_cj.solve inst).Splittable_cj.schedule
            | Variant.Preemptive -> (Pmtn_cj.solve inst).Pmtn_cj.schedule
            | Variant.Nonpreemptive -> (Nonp_search.solve inst).Nonp_search.schedule
          in
          let polished = (Solver.solve ~algorithm:Solver.Approx3_2 v inst).Solver.schedule in
          Rat.( <= ) (Schedule.makespan polished) (Schedule.makespan raw))
        Variant.all)

let () =
  Alcotest.run "compaction"
    [
      ( "unit",
        [
          Alcotest.test_case "closes gaps" `Quick test_closes_gaps;
          Alcotest.test_case "job sequentiality" `Quick test_respects_job_sequentiality;
          Alcotest.test_case "preemptive unsorted appends" `Quick test_pmtn_unsorted_appends;
        ] );
      Helpers.qsuite "props"
        [ prop_preserves_feasibility_never_longer; prop_improves_dual_constructions; prop_matches_global_replay ];
    ]
