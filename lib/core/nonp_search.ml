open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; dual_calls : int }

let solve inst =
  let calls = ref 0 in
  let test t =
    incr calls;
    Guard.tick "nonp_search.guess";
    Probe.count "nonp_search.guesses";
    let sp = Probe.enter "dual" in
    let r = Nonp_dual.test inst (Rat.of_int t) in
    Probe.leave sp;
    (match r with
    | Ok () ->
      Probe.count "nonp_search.accepted";
      if Probe.enabled () then
        Probe.event (Event.Guess_accepted { source = "nonp_search"; t = Rat.of_int t })
    | Error rej ->
      Probe.count "nonp_search.rejected";
      if Probe.enabled () then
        Probe.event
          (Event.Guess_rejected
             {
               source = "nonp_search";
               t = Rat.of_int t;
               reason = Format.asprintf "%a" Dual.pp_rejection rej;
             }));
    r
  in
  let t_min = Lower_bounds.t_min Variant.Nonpreemptive inst in
  (* lo < OPT without testing: lo = ⌈T_min⌉ − 1 < T_min <= OPT. *)
  let lo = ref (Rat.ceil_int t_min - 1) in
  let hi = ref (Rat.ceil_int (Rat.mul_int t_min 2)) in
  (match test !hi with
  | Error r -> failwith (Format.asprintf "dual rejected 2*T_min >= OPT: %a" Dual.pp_rejection r)
  | Ok () -> ());
  (* Invariant: !lo < OPT (rejected or below T_min), !hi accepted. On
     exit hi = lo + 1, so by integrality of OPT, hi <= OPT. *)
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    match test mid with
    | Ok () -> hi := mid
    | Error _ -> lo := mid
  done;
  if Probe.enabled () then
    Probe.event
      (Event.Interval_exit { source = "nonp_search"; lo = Rat.of_int !lo; hi = Rat.of_int !hi });
  let accepted = Rat.of_int !hi in
  let schedule = Probe.span "construction" (fun () -> Nonp_dual.construct inst accepted) in
  { schedule; accepted; dual_calls = !calls }
