(** Theorem 8: exact 3/2-approximation for non-preemptive scheduling in
    [O(n log(n + Δ))].

    [OPT] is integral (all inputs are integers and nothing is preempted),
    and [OPT ∈ [⌈T_min⌉, 2 T_min]], so an integer binary search with the
    3/2-dual of Theorem 9 finds the smallest accepted integer
    [T* <= OPT]; the dual's schedule at [T*] has makespan
    [<= (3/2)·T* <= (3/2)·OPT].

    Each guess is decided by {!Nonp_dual.test} alone, and
    {!Nonp_dual.construct} runs once, at [T*]: [O(log(n+Δ))] [O(n)]
    tests plus one [O(n)] build. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** integral [T*]; makespan [<= (3/2)·T*] *)
  dual_calls : int;  (** guesses tested; the one build is not counted *)
}

val solve : Instance.t -> result
