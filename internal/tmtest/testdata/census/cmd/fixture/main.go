package main

import "repro/internal/fixture"

func main() { fixture.Run() }
