open Bss_util
open Bss_instances
open Bss_wrap

let bounds inst tee =
  let c = Instance.c inst in
  (* P(J) from the precomputed class loads: keeps each bound test O(c),
     which is what gives class jumping its O(n + c log(c+m)) total. *)
  let l_split = ref (Rat.of_int (Intmath.sum_array inst.Instance.class_load)) in
  let m_exp = ref 0 in
  for i = 0 to c - 1 do
    let s = inst.Instance.setups.(i) in
    if Partition.is_expensive inst tee i then begin
      let b = Partition.beta inst tee i in
      m_exp := !m_exp + b;
      l_split := Rat.add !l_split (Rat.of_int (b * s))
    end
    else l_split := Rat.add !l_split (Rat.of_int s)
  done;
  (!l_split, !m_exp)

let test inst tee =
  let m = inst.Instance.m in
  (* OPT > s_max strictly, so any T < s_max is certainly below OPT. T =
     s_max itself is allowed: every gap top s_i + T/2 then stays within
     3T/2, keeping the acceptance set left-closed (the class-jumping search
     returns its minimum). *)
  if Rat.( < ) tee (Rat.of_int inst.Instance.s_max) then
    Error (Dual.Below_trivial_bound { bound = Rat.of_int inst.Instance.s_max })
  else begin
    let l_split, m_exp = bounds inst tee in
    let m_t = Rat.mul_int tee m in
    if Rat.( < ) m_t l_split then Error (Dual.Load_exceeds { required = l_split; available = m_t })
    else if m < m_exp then Error (Dual.Machines_exceed { required = m_exp; available = m })
    else Ok ()
  end

let construct inst tee =
  let m = inst.Instance.m in
  let sched = Schedule.create m in
  let half = Rat.div_int tee 2 in
  let three_half = Rat.mul_int half 3 in
  let p = Partition.make inst tee in
  (* Step 1: wrap each expensive class into β_i gaps of height T/2 on
     top of its setup; first machine's gap starts at 0 (the setup is
     part of the wrapped sequence), later gaps start at s_i with the
     setup re-placed below by Wrap. *)
  let cursor = ref 0 in
  let last_machines = ref [] in
  List.iter
    (fun i ->
      let s = Rat.of_int inst.Instance.setups.(i) in
      let b = Partition.beta inst tee i in
      let top = Rat.add s half in
      let first = { Template.machine = !cursor; lo = Rat.zero; hi = top } in
      let rest = Template.uniform_run ~first_machine:(!cursor + 1) ~count:(b - 1) ~lo:s ~hi:top in
      let omega = Template.concat [ [ first ]; rest ] in
      let _ = Wrap.wrap inst sched (Sequence.of_classes inst [ i ]) omega in
      let last = !cursor + b - 1 in
      last_machines := (i, last) :: !last_machines;
      cursor := !cursor + b)
    p.Partition.exp;
  (* Step 2: cheap classes go into the leftovers of the last machines
     with load < T (gap [L(ū_i) + T/2, 3T/2]) and into the unused
     machines (gap [T/2, 3T/2]); T/2 below each gap leaves room for one
     cheap setup. *)
  let leftover_gaps =
    List.rev !last_machines
    |> List.filter_map (fun (_, u) ->
           let load = Schedule.machine_load sched u in
           if Rat.( < ) load tee then
             Some { Template.machine = u; lo = Rat.add load half; hi = three_half }
           else None)
  in
  let empty_gaps =
    Template.uniform_run ~first_machine:!cursor ~count:(m - !cursor) ~lo:half ~hi:three_half
  in
  let q = Sequence.of_classes inst p.Partition.chp in
  if q <> [] then begin
    let omega = Template.concat [ leftover_gaps; empty_gaps ] in
    let _ = Wrap.wrap inst sched q omega in
    ()
  end;
  sched

let run = Dual.run { Dual.test; construct }
