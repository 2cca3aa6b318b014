(** The worker engine that executes cache-missing tasks.  There is one:
    OCaml 5 domains over a shared {!Analysis.service} ({!Domain_pool}).
    Every analysis is bounded by its work budget ({!Analysis.work_budget}),
    so no engine needs to kill a worker.  The type stays only as the
    argument of [Pool.config ?engine] and [Server.config ?engine], which
    take it and ignore it. *)

type t = Domains
