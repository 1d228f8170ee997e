package policy

// PredictorHelp returns one-line descriptions keyed by predictor name.
func PredictorHelp() map[string]string {
	out := make(map[string]string, len(predictors))
	for name, e := range predictors {
		out[name] = e.help
	}
	return out
}

// StrategyHelp returns one-line descriptions keyed by strategy name.
func StrategyHelp() map[string]string {
	out := make(map[string]string, len(strategies))
	for name, e := range strategies {
		out[name] = e.help
	}
	return out
}
