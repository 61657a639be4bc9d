(* Tests for the (3/2+eps) binary search (Theorem 2), the unified solver
   facade, and the workload generators. *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_workloads

let check = Alcotest.check
let bool_c = Alcotest.bool

let fixture () =
  Instance.make ~m:3 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

(* ---------------- dual_search ---------------- *)

let test_search_all_variants () =
  let inst = fixture () in
  let eps = Rat.of_ints 1 10 in
  List.iter
    (fun v ->
      let t_min = Lower_bounds.t_min v inst in
      let r = Dual_search.search ~dual:(Solver.dual_for v) ~epsilon:eps ~t_min inst in
      Checker.check_exn v inst r.Dual_search.schedule;
      (* makespan <= 3/2 accepted, accepted <= (1 + 2eps/3)(lowest rejected) *)
      check bool_c "within 3/2 accepted" true
        (Helpers.within_factor ~num:3 ~den:2 r.Dual_search.schedule r.Dual_search.accepted))
    Variant.all

let test_search_call_budget () =
  let inst = fixture () in
  let eps = Rat.of_ints 1 1000 in
  let t_min = Lower_bounds.t_min Variant.Splittable inst in
  let r = Dual_search.search ~dual:(Solver.dual_for Variant.Splittable) ~epsilon:eps ~t_min inst in
  (* log2(3/(2*eps)) + 2 calls *)
  check bool_c "O(log 1/eps) calls" true (r.Dual_search.dual_calls <= 11 + 3)

let test_search_invalid_epsilon () =
  let inst = fixture () in
  check bool_c "raises" true
    (try
       ignore
         (Dual_search.search ~dual:(Solver.dual_for Variant.Splittable) ~epsilon:Rat.zero
            ~t_min:(Lower_bounds.t_min Variant.Splittable inst) inst);
       false
     with Invalid_argument _ -> true)

let prop_search_guarantee =
  QCheck2.Test.make ~name:"(3/2+eps) search: feasible; accepted within eps' of a rejected guess"
    ~count:200 (Helpers.gen_instance ())
    (fun inst ->
      let eps = Rat.of_ints 1 7 in
      List.for_all
        (fun v ->
          let t_min = Lower_bounds.t_min v inst in
          let r = Dual_search.search ~dual:(Solver.dual_for v) ~epsilon:eps ~t_min inst in
          Checker.is_feasible v inst r.Dual_search.schedule
          && Helpers.within_factor ~num:3 ~den:2 r.Dual_search.schedule r.Dual_search.accepted)
        Variant.all)

let run_for = function
  | Variant.Splittable -> Splittable_dual.run
  | Variant.Preemptive -> fun i t -> Pmtn_dual.run i t
  | Variant.Nonpreemptive -> Nonp_dual.run

(* The search as it was before it split each dual into test and
   construction: every guess runs the whole dual, and the schedule of the
   latest accepted guess is kept. The search must return exactly this
   schedule, guess and call count. *)
let reference_search ~run ~epsilon ~t_min inst =
  let calls = ref 0 in
  let run tee =
    incr calls;
    run inst tee
  in
  let tolerance = Rat.mul t_min (Rat.mul_int (Rat.div_int epsilon 3) 2) in
  match run t_min with
  | Dual.Accepted s -> (s, t_min, !calls)
  | Dual.Rejected _ -> (
    let hi = Rat.mul_int t_min 2 in
    match run hi with
    | Dual.Rejected r -> Alcotest.failf "reference: 2*T_min rejected: %a" Dual.pp_rejection r
    | Dual.Accepted s ->
      let rec go lo hi best =
        if Rat.( <= ) (Rat.sub hi lo) tolerance then (best, hi, !calls)
        else begin
          let mid = Rat.div_int (Rat.add lo hi) 2 in
          match run mid with
          | Dual.Accepted s -> go lo mid s
          | Dual.Rejected _ -> go mid hi best
        end
      in
      go t_min hi s)

let prop_search_matches_reference =
  QCheck2.Test.make ~name:"(3/2+eps) search: builds once, same result as building every accepted guess"
    ~count:150 ~print:Instance.to_string (Helpers.gen_family_instance ()) (fun inst ->
      List.for_all
        (fun v ->
          let t_min = Lower_bounds.t_min v inst in
          List.for_all
            (fun epsilon ->
              let r = Dual_search.search ~dual:(Solver.dual_for v) ~epsilon ~t_min inst in
              let schedule, accepted, calls = reference_search ~run:(run_for v) ~epsilon ~t_min inst in
              Schedule.equal r.Dual_search.schedule schedule
              && Rat.equal r.Dual_search.accepted accepted
              && r.Dual_search.dual_calls = calls)
            [ Rat.of_ints 1 7; Rat.of_ints 1 64 ])
        Variant.all)

(* ---------------- solver facade ---------------- *)

let prop_solver_certificates =
  QCheck2.Test.make ~name:"solver: schedules feasible and within certificates" ~count:150
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          List.for_all
            (fun algorithm ->
              let r = Solver.solve ~algorithm v inst in
              Checker.is_feasible v inst r.Solver.schedule
              && Rat.( <= ) (Schedule.makespan r.Solver.schedule) r.Solver.certificate
              && String.length (Solver.algorithm_name ~algorithm v) > 0)
            [ Solver.Approx2; Solver.Approx3_2_eps (Rat.of_ints 1 4); Solver.Approx3_2 ])
        Variant.all)

let test_solver_guarantees () =
  let inst = fixture () in
  let r2 = Solver.solve ~algorithm:Solver.Approx2 Variant.Splittable inst in
  check bool_c "2" true (Rat.equal r2.Solver.guarantee Rat.two);
  let r32 = Solver.solve ~algorithm:Solver.Approx3_2 Variant.Preemptive inst in
  check bool_c "3/2" true (Rat.equal r32.Solver.guarantee (Rat.of_ints 3 2));
  let re = Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 2)) Variant.Nonpreemptive inst in
  check bool_c "2 = 3/2+1/2" true (Rat.equal re.Solver.guarantee Rat.two)

(* ---------------- dual outcome API ---------------- *)

let test_dual_printers_and_accessors () =
  let inst = fixture () in
  let acc = Splittable_dual.run inst (Rat.of_int inst.Instance.total) in
  check bool_c "is_accepted" true (Dual.is_accepted acc);
  check bool_c "accepted some" true (Dual.accepted acc <> None);
  check bool_c "accepted prints" true
    (String.length (Format.asprintf "%a" Dual.pp_outcome acc) > 0);
  let rej = Splittable_dual.run inst Rat.one in
  check bool_c "not accepted" false (Dual.is_accepted rej);
  check bool_c "rejected none" true (Dual.accepted rej = None);
  check bool_c "rejection prints" true
    (String.length (Format.asprintf "%a" Dual.pp_outcome rej) > 0);
  (* all three rejection constructors print *)
  List.iter
    (fun r -> check bool_c "prints" true (String.length (Format.asprintf "%a" Dual.pp_rejection r) > 0))
    [
      Dual.Below_trivial_bound { bound = Rat.one };
      Dual.Load_exceeds { required = Rat.two; available = Rat.one };
      Dual.Machines_exceed { required = 3; available = 1 };
    ]

let rejection_equal a b =
  match (a, b) with
  | Dual.Below_trivial_bound { bound = x }, Dual.Below_trivial_bound { bound = y } -> Rat.equal x y
  | Dual.Load_exceeds { required = r; available = a }, Dual.Load_exceeds { required = r'; available = a' } ->
    Rat.equal r r' && Rat.equal a a'
  | Dual.Machines_exceed { required = r; available = a }, Dual.Machines_exceed { required = r'; available = a' } ->
    r = r' && a = a'
  | _ -> false

(* Integer guesses across [⌈T_min⌉ − 1, 2·T_min] (at most ~14 of them),
   plus the midpoint above each one when [halves]. *)
let guesses ~halves v inst =
  let t_min = Lower_bounds.t_min v inst in
  let lo = max 1 (Rat.ceil_int t_min - 1) and hi = Rat.floor_int (Rat.mul_int t_min 2) in
  let step = max 1 ((hi - lo) / 12) in
  let rec ints t = if t > hi then [] else t :: ints (t + step) in
  List.concat_map
    (fun t ->
      let tee = Rat.of_int t in
      if halves then [ tee; Rat.add tee (Rat.of_ints 1 2) ] else [ tee ])
    (ints lo @ [ hi ])

(* Each dual's acceptance rule lives in its [test]: [run] must accept
   exactly where [test] does, reject with the same reason, and build the
   schedule [construct] builds. *)
let prop_test_decides_run =
  let duals =
    [
      (Variant.Splittable, true, Splittable_dual.test, Splittable_dual.construct, Splittable_dual.run);
      ( Variant.Preemptive,
        true,
        (fun i t -> Pmtn_dual.test i t),
        (fun i t -> Pmtn_dual.construct i t),
        fun i t -> Pmtn_dual.run i t );
      ( Variant.Preemptive,
        true,
        Pmtn_dual.test ~mode:Pmtn_nice.Gamma,
        Pmtn_dual.construct ~mode:Pmtn_nice.Gamma,
        Pmtn_dual.run ~mode:Pmtn_nice.Gamma );
      (Variant.Nonpreemptive, false, Nonp_dual.test, Nonp_dual.construct, Nonp_dual.run);
    ]
  in
  QCheck2.Test.make ~name:"duals: test accepts iff run does, same rejection, same schedule" ~count:150
    ~print:Instance.to_string (Helpers.gen_family_instance ()) (fun inst ->
      List.for_all
        (fun (v, halves, test, construct, run) ->
          List.for_all
            (fun tee ->
              match (test inst tee, run inst tee) with
              | Ok (), Dual.Accepted s -> Schedule.equal (construct inst tee) s
              | Error r, Dual.Rejected r' -> rejection_equal r r'
              | Ok (), Dual.Rejected _ | Error _, Dual.Accepted _ -> false)
            (guesses ~halves v inst))
        duals)

let test_algorithm_names_distinct () =
  let names =
    List.concat_map
      (fun v ->
        List.map
          (fun a -> Solver.algorithm_name ~algorithm:a v)
          [ Solver.Approx2; Solver.Approx3_2_eps (Rat.of_ints 1 8); Solver.Approx3_2 ])
      Variant.all
  in
  (* 2-approx and 3/2+eps names are variant-independent; the exact 3/2
     names differ per variant *)
  check bool_c "some distinct" true (List.length (List.sort_uniq compare names) >= 5)

(* ---------------- workloads ---------------- *)

let test_generators_produce_valid_instances () =
  List.iter
    (fun (spec : Generator.spec) ->
      let rng = Prng.create 42 in
      let inst = spec.Generator.generate rng ~m:8 ~n:64 in
      check bool_c (spec.Generator.name ^ " nonempty") true (Instance.n inst >= 1);
      check bool_c (spec.Generator.name ^ " classes nonempty") true
        (List.for_all (fun i -> Instance.class_size inst i >= 1) (List.init (Instance.c inst) (fun i -> i))))
    Generator.all

let test_generators_deterministic () =
  List.iter
    (fun (spec : Generator.spec) ->
      let a = spec.Generator.generate (Prng.create 7) ~m:4 ~n:30 in
      let b = spec.Generator.generate (Prng.create 7) ~m:4 ~n:30 in
      check bool_c spec.Generator.name true (Instance.equal a b))
    Generator.all

let test_generator_job_counts () =
  List.iter
    (fun (spec : Generator.spec) ->
      let inst = spec.Generator.generate (Prng.create 1) ~m:4 ~n:100 in
      let n = Instance.n inst in
      (* within a factor-ish of the target (families round to their shape) *)
      (* tiny clamps to <= 9 jobs; anti-wrap is one tiny job per class by
         design *)
      check bool_c
        (Printf.sprintf "%s count %d" spec.Generator.name n)
        true
        (n >= 8 || spec.Generator.name = "tiny" || spec.Generator.name = "anti-wrap"))
    Generator.all

let test_suites () =
  let t1 = Suite.table1 () in
  check bool_c "table1 nonempty" true (List.length t1 >= 16);
  let tiny = Suite.tiny_exact () in
  check bool_c "tiny" true (List.length tiny = 40);
  let sc = Suite.scaling ~family:Generator.uniform ~m:8 [ 100; 200 ] in
  check bool_c "scaling sizes" true (List.length sc = 2);
  (* deterministic: regenerating gives equal instances *)
  let t1' = Suite.table1 () in
  check bool_c "reproducible" true
    (List.for_all2 (fun a b -> Instance.equal a.Suite.instance b.Suite.instance) t1 t1')

let test_by_name () =
  check bool_c "found" true (Generator.by_name "uniform" == Generator.uniform);
  check bool_c "not found" true (try ignore (Generator.by_name "nope"); false with Not_found -> true)

let () =
  Alcotest.run "solver"
    [
      ( "dual-search",
        [
          Alcotest.test_case "all variants" `Quick test_search_all_variants;
          Alcotest.test_case "call budget" `Quick test_search_call_budget;
          Alcotest.test_case "invalid epsilon" `Quick test_search_invalid_epsilon;
        ] );
      ( "facade",
        [
          Alcotest.test_case "guarantees" `Quick test_solver_guarantees;
          Alcotest.test_case "dual printers" `Quick test_dual_printers_and_accessors;
          Alcotest.test_case "algorithm names" `Quick test_algorithm_names_distinct;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "valid instances" `Quick test_generators_produce_valid_instances;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "job counts" `Quick test_generator_job_counts;
          Alcotest.test_case "suites" `Quick test_suites;
          Alcotest.test_case "by name" `Quick test_by_name;
        ] );
      Helpers.qsuite "props"
        [ prop_search_guarantee; prop_search_matches_reference; prop_test_decides_run; prop_solver_certificates ];
    ]
