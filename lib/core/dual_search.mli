(** Theorem 2: binary search over makespan guesses with a 3/2-dual
    algorithm, yielding a (3/2 + ε)-approximation in [O(n log 1/ε)].

    [OPT ∈ [T_min, 2 T_min]] (Theorem 1), and every dual in this library
    accepts any [T >= OPT]. The search keeps an interval [(lo, hi]] with
    [lo] rejected (hence [lo < OPT]) and [hi] accepted, halving until
    [hi − lo <= ε'·T_min] with [ε' = 2ε/3]; then the accepted schedule has
    makespan [<= (3/2)·hi <= (3/2)(1 + ε')·OPT = (3/2 + ε)·OPT].

    Each guess is decided by the dual's [test] alone; its [construct] runs
    once, at [T_min] when that first guess is accepted and otherwise at the
    final [hi]: [O(log 1/ε)] [O(n)] tests plus one [O(n)] build. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** the accepted guess; makespan [<= (3/2)·accepted] *)
  dual_calls : int;  (** number of guesses tested (for ablations); the one build is not counted *)
}

(** [search ~dual ~epsilon ~t_min inst] runs the search with [dual]'s
    test and construction. [epsilon] must be positive; [t_min] is the
    variant's {!Bss_instances.Lower_bounds.t_min}.
    @raise Invalid_argument on non-positive [epsilon].
    @raise Failure if the dual rejects [2·t_min] (a dual-contract
    violation — cannot happen for the duals in this library). *)
val search : dual:Dual.algorithm -> epsilon:Rat.t -> t_min:Rat.t -> Instance.t -> result
