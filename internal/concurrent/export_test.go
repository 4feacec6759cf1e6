package concurrent

// Accessors that only the external test package reads.

// CountsRMRs reports whether the space's registers charge RMR counters
// (Config.CountRMRs).
func (s *Space) CountsRMRs() bool { return s.cfg.CountRMRs }

// Sealed reports whether the space has been sealed.
func (s *Space) Sealed() bool { return s.sealed }

// Banks returns the number of contiguous register banks backing the
// space — the allocation count of the whole register footprint.
func (s *Space) Banks() int { return len(s.banks) }
