(** Theorem 5: the 3/2-dual approximation for general preemptive
    scheduling (Algorithm 3).

    For a guess [T]:

    + every class of [I0exp] ([3T/4 < s_i + P(C_i) < T]) gets its own
      {e large machine}, its load placed from [T/2] upward — sound by
      Lemma 10;
    + the free time [F] on the other [m − l] machines must host
      [J(I+exp ∪ I-exp ∪ I+chp)] entirely; big jobs of [I-chp] classes
      ([s_i + t_j > T/2], the set [C*_i]) cannot live on large machines
      alone (Lemma 4), so each contributes an obligatory piece
      [t^(2)_j = s_i + t_j − T/2] outside;
    + when [F] cannot host all of [I*chp], a {e continuous knapsack}
      (profits [s_i], weights [P(C_i) − L*_i], capacity [F − L*]) decides
      which classes live entirely outside; the fractional split item [e]
      is divided per Eq. (6);
    + the selected load forms a {e nice} instance placed by Algorithm 2 on
      the non-large machines (all cheap pieces at or above [T/2]); the
      leftovers [K] go below the large machines' loads: big leftovers
      ([t > T/4]) one per machine at the bottom, small ones wrapped into
      [(0, T/2)] and [(T/4, T/2)] gaps. Sibling pieces stay on opposite
      sides of the [T/2] line, so no job ever runs parallel to itself.

    Rejection (certifying [T < OPT]) happens on the trivial bound
    [max_i (s_i + t^(i)_max)], on [mT < L_pmtn], on [m < m'], or when the
    obligatory outside load exceeds [F]. *)

open Bss_util
open Bss_instances

(** [run inst tee] is the dual algorithm. [mode] selects how many
    machines an [I+exp] class occupies: [Alpha_prime] (default, Algorithm
    3) or [Gamma] (Section 4.4, used by class jumping). Both are valid
    3/2-duals. *)
val run : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> Dual.outcome

(** [bounds inst tee] is [(L_pmtn, m')] (knapsack included), exposed for
    the class-jumping search and tests. Requires
    [tee >= max_i (s_i + t^(i)_max)]. *)
val bounds : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> Rat.t * int

(** [test inst tee] runs every rejection check of {!run} without building
    the schedule ([Ok ()] means {!run} would accept). Used by the searches,
    which probe many guesses and construct only once. *)
val test : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> (unit, Dual.rejection) result

(** [construct inst tee] builds the schedule {!run} returns on acceptance,
    redoing the [O(n)] analysis {!test} did. Requires
    [test ?mode inst tee = Ok ()]. It charges no guard tick: a search pays
    one per guess in {!test} and builds once. *)
val construct : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> Schedule.t

(** [analysis] quantities exposed for the class-jumping search. *)
type analysis

val analyze : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> analysis

(** [search_quantities inst tee a] is
    [(L_low, m', large_count, case_a, y, star_count)] where [L_low] is
    [L_pmtn] without its knapsack (unselected-setup) term — a
    piecewise-constant lower bound on [L_pmtn] — [y = F − L*] is the
    outside capacity, and [star_count = Σ_{I*chp} |C*_i|]. *)
val search_quantities : Instance.t -> Rat.t -> analysis -> Rat.t * int * int * bool * Rat.t * int
