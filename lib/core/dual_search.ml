open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; dual_calls : int }

let observe_verdict tee = function
  | Ok () ->
    Probe.count "dual_search.accepted";
    if Probe.enabled () then Probe.event (Event.Guess_accepted { source = "dual_search"; t = tee })
  | Error r ->
    Probe.count "dual_search.rejected";
    if Probe.enabled () then
      Probe.event
        (Event.Guess_rejected
           { source = "dual_search"; t = tee; reason = Format.asprintf "%a" Dual.pp_rejection r })

let exit_interval lo hi =
  if Probe.enabled () then Probe.event (Event.Interval_exit { source = "dual_search"; lo; hi })

let search ~(dual : Dual.algorithm) ~epsilon ~t_min inst =
  if Rat.sign epsilon <= 0 then invalid_arg "Dual_search.search: epsilon must be positive";
  let calls = ref 0 in
  let test tee =
    incr calls;
    Guard.tick "dual_search.guess";
    Probe.count "dual_search.guesses";
    let sp = Probe.enter "dual" in
    let r = dual.test inst tee in
    Probe.leave sp;
    observe_verdict tee r;
    r
  in
  let finish lo hi =
    exit_interval lo hi;
    let schedule = Probe.span "construction" (fun () -> dual.construct inst hi) in
    { schedule; accepted = hi; dual_calls = !calls }
  in
  (* ε' = 2ε/3 makes the final ratio exactly 3/2 + ε. *)
  let tolerance = Rat.mul t_min (Rat.mul_int (Rat.div_int epsilon 3) 2) in
  match test t_min with
  | Ok () -> finish t_min t_min
  | Error _ -> begin
    let hi = Rat.mul_int t_min 2 in
    match test hi with
    | Error r -> failwith (Format.asprintf "dual rejected 2*T_min >= OPT: %a" Dual.pp_rejection r)
    | Ok () ->
      let rec go lo hi =
        if Rat.( <= ) (Rat.sub hi lo) tolerance then finish lo hi
        else begin
          let mid = Rat.div_int (Rat.add lo hi) 2 in
          match test mid with
          | Ok () -> go lo mid
          | Error _ -> go mid hi
        end
      in
      go t_min hi
  end
