(** Wall-clock and allocation meters shared by the bench harnesses. *)

val now_ns : unit -> float
(** Wall-clock nanoseconds ([Unix.gettimeofday]). *)

val allocated_bytes : unit -> float
(** Bytes allocated so far, minor and major heap, less the meter's own
    readings: the difference of two readings is exactly what the code
    between them allocated, so a region that allocates nothing reads
    [0.0].  Take [now_ns] outside that region: it allocates. *)
