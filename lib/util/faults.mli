(** Deterministic fault injection.

    Long-running services meet their failure paths in production first
    unless those paths can be forced in tests. This module names the
    places where the system deliberately tolerates failure — image and
    journal IO, each snippet pipeline stage — as {e fault
    points}, and arms them from a single environment variable:

    {v EXTRACT_FAULTS="snapshot.map:fail,pipeline.snippet:nth=2" v}

    Each entry is [point:spec] where spec is one of

    - [fail] — every pass through the point fails;
    - [once] — only the first pass fails;
    - [nth=K] — only the [K]-th pass fails (1-based);
    - [p=F] or [p=F;seed=N] — each pass fails with probability [F],
      decided by a dedicated {!Prng} stream (deterministic per seed);
    - [crash] or [crash=K] — instead of failing, the process dies on the
      spot with [Unix._exit 137] (every pass, or only the [K]-th): a
      simulated power cut, with no [at_exit] handlers and no buffer
      flushes, indistinguishable from [kill -9] to whatever the process
      was writing. The crash harness and [--chaos] use this to cut power
      mid-update at a named point deterministically.

    Unarmed, a fault point costs a single flag read. Consumers either call
    {!hit} (raise {!Injected} at the point, e.g. the image and journal
    writes) or branch on {!should_fail} (used by the image load to fail
    as [Codec.Corrupt], so the injected failure exercises exactly the
    corrupt-artifact path, and by the pipeline to degrade a snippet in
    place). Counters record how
    often each point was passed and how often it fired, so tests can
    prove a degradation path actually ran.

    The registry of installed points is documented in DESIGN.md §9. *)

exception Injected of string * string
(** [(point, detail)] — raised by {!hit} when the point is due to fail. *)

val env_var : string
(** ["EXTRACT_FAULTS"]. *)

val configure : string -> (unit, string) result
(** Replace the armed fault set with the parsed configuration string
    (empty string clears). On a parse error, everything is disarmed and
    the message names the offending entry. *)

val install_from_env : unit -> unit
(** {!configure} from [EXTRACT_FAULTS] when set; no-op otherwise.
    Entry points (CLI, demo server) call this at startup.
    @raise Invalid_argument when the variable is set but unparsable. *)

val clear : unit -> unit
(** Disarm every fault point. *)

val active : unit -> bool
(** Is any fault point armed? *)

val should_fail : string -> bool
(** [should_fail point] — consult and advance the point's state: [true]
    when this pass should fail. Always [false] for unarmed points. When
    the point is armed with a [crash] spec and due, this call does not
    return: the process exits with {!crash_exit_code} immediately. *)

val crash_exit_code : int
(** [137] (= 128 + SIGKILL): what a [crash]-spec'd point exits with, and
    what a shell reports for a real [kill -9]. Crash harnesses accept
    exactly this status from a child that died at an armed point. *)

val hit : string -> unit
(** Like {!should_fail} but raises {!Injected} when due. *)

val hits : string -> int
(** Passes through the point since it was armed (0 when unarmed). *)

val fired : string -> int
(** Failures injected at the point since it was armed. *)

val configured : unit -> (string * string) list
(** The armed [(point, spec)] pairs, sorted by point. *)
