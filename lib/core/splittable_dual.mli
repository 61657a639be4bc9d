(** Theorem 7: the 3/2-dual approximation for splittable scheduling
    (Appendix C).

    For a guess [T], let [β_i = ⌈2 P(C_i)/T⌉],
    [L_split = P(J) + Σ_{chp} s_i + Σ_{exp} β_i s_i] and
    [m_exp = Σ_{exp} β_i]. If [mT < L_split] or [m < m_exp] then [T < OPT];
    otherwise a feasible schedule of makespan at most [3T/2] is built in
    linear time:

    + each expensive class [i] is wrapped into [β_i] gaps of height [T/2]
      sitting on top of its own setup;
    + the cheap classes are wrapped into the leftovers of the last machines
      of step 1 (above [L(ū_i) + T/2]) and into gaps [(T/2, 3T/2)] on the
      unused machines, with room for one cheap setup below every gap.

    Additionally, [T < s_max] rejects immediately (OPT > s_max); [T = s_max]
    is allowed — every gap top [s_i + T/2] then still fits under [3T/2] —
    which keeps the acceptance set left-closed, a property the
    class-jumping search relies on. *)

open Bss_util
open Bss_instances

(** [test inst tee] is the acceptance rule of {!run} in [O(c)]: the
    left-closed [T < s_max] clamp, then [mT < L_split] and [m < m_exp].
    [Ok ()] means {!run} accepts. Every splittable search decides its
    guesses with it. *)
val test : Instance.t -> Rat.t -> (unit, Dual.rejection) result

(** [construct inst tee] wraps the classes as described above. Requires
    [test inst tee = Ok ()]. *)
val construct : Instance.t -> Rat.t -> Schedule.t

(** [run inst tee] is the dual algorithm: {!test}, then {!construct}. *)
val run : Instance.t -> Rat.t -> Dual.outcome

(** [bounds inst tee] is [(L_split, m_exp)] — the rejection quantities,
    exposed for the class-jumping search.
    Requires [tee > s_max]. *)
val bounds : Instance.t -> Rat.t -> Rat.t * int
