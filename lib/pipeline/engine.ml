type t = Domains
