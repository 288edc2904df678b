(* Binary min-heap ordered by (time, seq), kept as three parallel arrays:
   unboxed times, sequence numbers and thunks. seq preserves FIFO order
   among simultaneous events, and (time, seq) is a total order, so any
   correct heap pops the same sequence and simulations are fully
   deterministic. Sifts move a hole rather than swapping, so each level
   costs one write per array. *)

let initial_capacity = 64

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable on_step : (unit -> unit) option;
}

let empty_thunks () = Array.make initial_capacity ignore

let create () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    thunks = empty_thunks ();
    size = 0;
    clock = 0.0;
    next_seq = 0;
    on_step = None;
  }

let set_on_step t hook = t.on_step <- hook

let now t = t.clock

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and thunks = Array.make cap ignore in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.thunks 0 thunks 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.thunks <- thunks

(* [seq] is larger than every queued seq, so on a time tie the new event
   stays below its parent: comparing times alone keeps (time, seq) order. *)
let push t time seq thunk =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and thunks = t.thunks in
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      thunks.(!i) <- thunks.(parent);
      i := parent
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  thunks.(!i) <- thunk

(* Removes the root: the last event fills the hole the root leaves, sifted
   down. A drained heap gives its grown arrays back. *)
let remove_top t =
  let last = t.size - 1 in
  t.size <- last;
  if last = 0 then begin
    if Array.length t.times > initial_capacity then begin
      t.times <- Array.make initial_capacity 0.0;
      t.seqs <- Array.make initial_capacity 0;
      t.thunks <- empty_thunks ()
    end
    else t.thunks.(0) <- ignore
  end
  else begin
    let times = t.times and seqs = t.seqs and thunks = t.thunks in
    let time = times.(last) and seq = seqs.(last) and thunk = thunks.(last) in
    thunks.(last) <- ignore;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          thunks.(!i) <- thunks.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    thunks.(!i) <- thunk
  end

let schedule_at t ~time thunk =
  let time = Float.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t time seq thunk

let schedule t ~delay thunk =
  schedule_at t ~time:(t.clock +. Float.max 0.0 delay) thunk

let is_empty t = t.size = 0

let pending t = t.size

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and thunk = t.thunks.(0) in
    remove_top t;
    t.clock <- time;
    (match t.on_step with None -> () | Some hook -> hook ());
    thunk ();
    true
  end

let run ?max_events t =
  let limit = Option.value max_events ~default:max_int in
  let rec go n = if n >= limit then n else if step t then go (n + 1) else n in
  go 0

let run_until t ~time =
  let rec go n =
    if t.size > 0 && t.times.(0) <= time then begin
      ignore (step t);
      go (n + 1)
    end
    else begin
      t.clock <- Float.max t.clock time;
      n
    end
  in
  go 0
