//go:build race

package main

// raceDetector: the race build runs several times slower, so serve_hot's
// fixed arrival rate overloads the stack and sheds — correctly.
const raceDetector = true
