(* Wall-clock source, monotonized: [Unix.gettimeofday] can step backwards
   (NTP adjustments); clamping to the highest value seen keeps deadlines
   from un-expiring. A test clock can be injected for deterministic
   expiry tests. *)

(* init-only — the test clock is installed by single-threaded test setup
   before any domain spawns, and read-only afterwards *)
let test_clock : (unit -> float) option ref = ref None

(* Every domain raises the shared floor with a CAS loop: the old
   plain-ref version was a read/write data race once the server's worker
   domains started calling [now] concurrently. *)
let monotonic_floor = Atomic.make neg_infinity

let now () =
  match !test_clock with
  | Some clock -> clock ()
  | None ->
    let t = Unix.gettimeofday () in
    let rec raise_floor () =
      let floor = Atomic.get monotonic_floor in
      if t > floor then
        if Atomic.compare_and_set monotonic_floor floor t then t else raise_floor ()
      else floor
    in
    raise_floor ()

let set_clock clock = test_clock := clock

(* [infinity] is "never": every comparison against it says not expired,
   and arithmetic keeps it infinite. *)
type t = float

let never = infinity

let is_never t = t = infinity

let after seconds = if seconds = infinity then never else now () +. seconds

let after_ms ms = after (float_of_int ms /. 1000.)

let of_ms_opt = function
  | None -> never
  | Some ms -> after_ms ms

let expired t = (not (is_never t)) && now () >= t

let remaining t = if is_never t then infinity else Float.max 0. (t -. now ())

let remaining_ms t =
  let r = remaining t in
  if r = infinity then max_int else int_of_float (Float.ceil (r *. 1000.))
