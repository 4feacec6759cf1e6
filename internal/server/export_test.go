package server

// ActiveConns reports how many connection handlers the server still
// counts as live.
func ActiveConns(s *Server) int { return int(s.active.Load()) }
