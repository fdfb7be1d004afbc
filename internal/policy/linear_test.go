package policy

// evaluateLinear is the reference implementation the snapshot path is
// differentially tested against: a full scan of the pre-sorted
// policies with per-event coverage resolution, byte-for-byte the
// behavior of the original Set.Evaluate.
func evaluateLinear(sorted []Policy, matchCat CategoryMatcher, env Env) Decision {
	var d Decision
	var dos, forbids []Policy
	for _, p := range sorted {
		if !p.Matches(env) {
			continue
		}
		d.Matched = append(d.Matched, p.ID)
		if p.Modality == ModalityForbid {
			forbids = append(forbids, p)
		} else {
			dos = append(dos, p)
		}
	}
	for _, doP := range dos {
		blockedBy := ""
		for _, fb := range forbids {
			if fb.Priority < doP.Priority {
				continue
			}
			if forbidCovers(matchCat, fb, doP.Action) {
				blockedBy = fb.ID
				break
			}
		}
		if blockedBy != "" {
			if d.Vetoed == nil {
				d.Vetoed = make(map[string]string)
			}
			d.Vetoed[doP.ID] = blockedBy
			continue
		}
		d.Actions = append(d.Actions, doP.Action)
	}
	return d
}

func forbidCovers(matchCat CategoryMatcher, fb Policy, a Action) bool {
	if fb.Action.Name != "" {
		return fb.Action.Name == a.Name
	}
	return matchCat(a.Category, fb.Action.Category)
}
