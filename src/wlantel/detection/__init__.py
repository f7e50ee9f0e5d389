"""Phase 2: the three detector families plus the severity classifier."""
