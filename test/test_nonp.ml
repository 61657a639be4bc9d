(* Tests for the non-preemptive 3/2 machinery: Theorem 9 dual (Algorithm 6)
   and Theorem 8 integer binary search. *)

open Bss_util
open Bss_instances
open Bss_core

let check = Alcotest.check
let bool_c = Alcotest.bool

let fixture () =
  Instance.make ~m:3 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

let test_dual_accepts_n () =
  let inst = fixture () in
  let tee = Rat.of_int inst.Instance.total in
  match Nonp_dual.run inst tee with
  | Dual.Accepted s -> Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst s tee
  | Dual.Rejected r -> Alcotest.failf "rejected N: %a" Dual.pp_rejection r

let test_dual_rejects_below_trivial () =
  let inst = fixture () in
  (* max(s_i + tmax_i) = 9 *)
  match Nonp_dual.run inst (Rat.of_int 8) with
  | Dual.Rejected (Dual.Below_trivial_bound _) -> ()
  | Dual.Rejected r -> Alcotest.failf "wrong rejection: %a" Dual.pp_rejection r
  | Dual.Accepted _ -> Alcotest.fail "accepted below trivial bound"

let test_dual_machine_rejection () =
  (* Three mutually exclusive big jobs, two machines. *)
  let inst = Instance.make ~m:2 ~setups:[| 2; 2; 2 |] ~jobs:[| (0, 9); (1, 9); (2, 9) |] in
  match Nonp_dual.run inst (Rat.of_int 11) with
  | Dual.Rejected _ -> ()
  | Dual.Accepted _ -> Alcotest.fail "accepted: 3 exclusive jobs on 2 machines"

(* The paper's Figure 10-13 shape: one expensive class, one cheap class
   with J+ and K jobs, several leftover cheap classes. *)
let figure10_instance () =
  Instance.make ~m:12
    ~setups:[| 11; 3; 2; 2; 2 |]
    ~jobs:
      [|
        (* class 0: expensive (s=11 > T/2 for T ~= 20) *)
        (0, 8); (0, 8); (0, 7); (0, 5);
        (* class 1: cheap with big jobs (t > 10) and K jobs (3+t > 10) *)
        (1, 12); (1, 11); (1, 9); (1, 8); (1, 4);
        (* classes 2-4: small leftovers *)
        (2, 5); (2, 4); (3, 6); (4, 3); (4, 2);
      |]

let test_dual_figure10_shape () =
  let inst = figure10_instance () in
  let rec go tee n =
    if n > 40 then Alcotest.fail "no accepted T"
    else begin
      match Nonp_dual.run inst tee with
      | Dual.Accepted s -> (tee, s)
      | Dual.Rejected _ -> go (Rat.add_int tee 1) (n + 1)
    end
  in
  let tee, s = go (Lower_bounds.t_min Variant.Nonpreemptive inst) 0 in
  Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst s tee

let test_search_fixture () =
  let inst = fixture () in
  let r = Nonp_search.solve inst in
  Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst r.Nonp_search.schedule
    r.Nonp_search.accepted;
  check bool_c "T* integral" true (Rat.is_integer r.Nonp_search.accepted);
  check bool_c "T* >= Tmin" true
    (Rat.( >= ) r.Nonp_search.accepted (Lower_bounds.t_min Variant.Nonpreemptive inst))

let test_search_single_machine () =
  let inst = Instance.make ~m:1 ~setups:[| 2; 3 |] ~jobs:[| (0, 4); (1, 5) |] in
  let r = Nonp_search.solve inst in
  (* OPT = N = 14; T* <= OPT *)
  check bool_c "T* <= N" true (Rat.( <= ) r.Nonp_search.accepted (Rat.of_int 14));
  Checker.check_exn Variant.Nonpreemptive inst r.Nonp_search.schedule

let test_search_logarithmic_calls () =
  let inst = figure10_instance () in
  let r = Nonp_search.solve inst in
  let tmin = Rat.ceil_int (Lower_bounds.t_min Variant.Nonpreemptive inst) in
  check bool_c "calls bounded" true (r.Nonp_search.dual_calls <= Intmath.log2_ceil (tmin + 2) + 3)

(* ---------------- properties ---------------- *)

let prop_dual_dichotomy =
  QCheck2.Test.make ~name:"dual accepts with 3/2 bound or rejects certifiably" ~count:400
    QCheck2.Gen.(pair (Helpers.gen_instance ()) (int_range 1 400))
    (fun (inst, t) ->
      let tee = Rat.of_int t in
      match Nonp_dual.run inst tee with
      | Dual.Accepted s ->
        Checker.is_feasible Variant.Nonpreemptive inst s && Helpers.within_factor ~num:3 ~den:2 s tee
      | Dual.Rejected _ ->
        (* rejection implies T < N (very weak sanity; exactness is checked
           via the search tests against brute force) *)
        t < inst.Instance.total)

let prop_search_feasible =
  QCheck2.Test.make ~name:"search: feasible, <= 3/2 T*, T*-1 rejected" ~count:300
    (Helpers.gen_instance ~max_m:10 ())
    (fun inst ->
      let r = Nonp_search.solve inst in
      let t_star = r.Nonp_search.accepted in
      Checker.is_feasible Variant.Nonpreemptive inst r.Nonp_search.schedule
      && Helpers.within_factor ~num:3 ~den:2 r.Nonp_search.schedule t_star
      &&
      let below = Rat.add_int t_star (-1) in
      Rat.( < ) below (Lower_bounds.t_min Variant.Nonpreemptive inst)
      || not (Dual.is_accepted (Nonp_dual.run inst below)))

(* The search as it was before it decided guesses with [Nonp_dual.test]:
   every guess runs the whole dual, and the schedule of the latest
   accepted guess is kept. *)
let reference inst =
  let calls = ref 0 in
  let run t =
    incr calls;
    Nonp_dual.run inst (Rat.of_int t)
  in
  let t_min = Lower_bounds.t_min Variant.Nonpreemptive inst in
  let lo = ref (Rat.ceil_int t_min - 1) in
  let hi = ref (Rat.ceil_int (Rat.mul_int t_min 2)) in
  match run !hi with
  | Dual.Rejected r -> Alcotest.failf "reference: 2*T_min rejected: %a" Dual.pp_rejection r
  | Dual.Accepted s ->
    let best = ref s in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      match run mid with
      | Dual.Accepted s ->
        best := s;
        hi := mid
      | Dual.Rejected _ -> lo := mid
    done;
    (!best, Rat.of_int !hi, !calls)

let same_as_reference inst =
  let r = Nonp_search.solve inst in
  let schedule, accepted, calls = reference inst in
  Schedule.equal r.Nonp_search.schedule schedule
  && Rat.equal r.Nonp_search.accepted accepted
  && r.Nonp_search.dual_calls = calls

let prop_search_matches_reference =
  QCheck2.Test.make ~name:"search: builds once, same result as building every accepted guess" ~count:200
    ~print:Instance.to_string
    (Helpers.gen_family_instance ~max_m:12 ~max_n:60 ())
    same_as_reference

let test_search_matches_reference_figure10 () =
  check bool_c "figure 10" true (same_as_reference (figure10_instance ()));
  check bool_c "fixture" true (same_as_reference (fixture ()))

let prop_search_extreme_shapes =
  QCheck2.Test.make ~name:"search on extreme shapes" ~count:150
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* shape = int_range 0 3 in
      return (seed, shape))
    (fun (seed, shape) ->
      let rng = Prng.create seed in
      let inst =
        match shape with
        | 0 -> Helpers.random_instance ~max_m:32 ~max_c:2 ~max_extra_jobs:2 rng
        | 1 -> Helpers.random_instance ~max_m:2 ~max_c:8 ~max_extra_jobs:50 rng
        | 2 -> Helpers.random_instance ~max_setup:100 ~max_time:3 rng
        | _ -> Helpers.random_instance ~max_setup:2 ~max_time:100 rng
      in
      let r = Nonp_search.solve inst in
      Checker.is_feasible Variant.Nonpreemptive inst r.Nonp_search.schedule
      && Helpers.within_factor ~num:3 ~den:2 r.Nonp_search.schedule r.Nonp_search.accepted)

let () =
  Alcotest.run "nonpreemptive"
    [
      ( "dual",
        [
          Alcotest.test_case "accepts N" `Quick test_dual_accepts_n;
          Alcotest.test_case "rejects below trivial" `Quick test_dual_rejects_below_trivial;
          Alcotest.test_case "machine rejection" `Quick test_dual_machine_rejection;
          Alcotest.test_case "figure 10 shape" `Quick test_dual_figure10_shape;
        ] );
      ( "search",
        [
          Alcotest.test_case "fixture" `Quick test_search_fixture;
          Alcotest.test_case "single machine" `Quick test_search_single_machine;
          Alcotest.test_case "log calls" `Quick test_search_logarithmic_calls;
          Alcotest.test_case "matches reference" `Quick test_search_matches_reference_figure10;
        ] );
      Helpers.qsuite "props"
        [ prop_dual_dichotomy; prop_search_feasible; prop_search_matches_reference; prop_search_extreme_shapes ];
    ]
