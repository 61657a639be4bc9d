(* Attribution from the benchmark's own side: the wall time and minor-heap
   words of each call the benchmark makes into a layer's public function.
   Disabled (the timed runs), [time] is a plain call. *)

type acc = { mutable calls : int; mutable ns : float; mutable words : float }

let on = ref false
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

(* Extra seconds spent inside the named layer's timing window. Only the
   self-test sets it, to show that a slowdown lands on the layer it was
   put into. *)
let injected : (string * float) list ref = ref []

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; ns = 0.; words = 0. } in
    Hashtbl.add accs name a;
    a

let time name f =
  if not !on then f ()
  else begin
    let a = acc name in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    (match List.assoc_opt name !injected with Some s -> Unix.sleepf s | None -> ());
    let r = f () in
    a.ns <- a.ns +. (now_ns () -. t0);
    a.words <- a.words +. (Gc.minor_words () -. w0);
    a.calls <- a.calls + 1;
    r
  end

let reset () = Hashtbl.reset accs

let ms name = match Hashtbl.find_opt accs name with Some a -> a.ns /. 1e6 | None -> 0.
let words name = match Hashtbl.find_opt accs name with Some a -> a.words | None -> 0.
let calls name = match Hashtbl.find_opt accs name with Some a -> a.calls | None -> 0

(* Mean per call, in milliseconds and words; 0 for a layer never called. *)
let ms_per_call name = if calls name = 0 then 0. else ms name /. float_of_int (calls name)
let words_per_call name = if calls name = 0 then 0. else words name /. float_of_int (calls name)
