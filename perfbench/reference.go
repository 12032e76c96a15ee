package main

// referenceSeed is the seed whose paper-tables outputs are recorded
// below.
const referenceSeed = 1

// referenceRows are the paper-tables outputs for the default seed, in
// tableRows order, recorded from the simulator this benchmark was
// written against. Scheduling is deterministic, so any difference is a
// behaviour change, not noise.
var referenceRows = []rowOutput{
	{Label: "RD", KWh: 1455.9990957679981, S: 89.67627037888028, Migrations: 0, Completed: 2714},
	{Label: "RR", KWh: 1613.2835531049855, S: 94.75819243641239, Migrations: 0, Completed: 2714},
	{Label: "BF", KWh: 1077.9826505391904, S: 99.90928057202143, Migrations: 0, Completed: 2714},
	{Label: "SB0", KWh: 1070.2545746470062, S: 99.87108193813305, Migrations: 0, Completed: 2714},
	{Label: "SB0", KWh: 1070.2545746470062, S: 99.87108193813305, Migrations: 0, Completed: 2714},
	{Label: "SB1", KWh: 1101.4099923518047, S: 99.89283911085245, Migrations: 0, Completed: 2714},
	{Label: "SB2", KWh: 1068.2915645377548, S: 99.86567001832444, Migrations: 0, Completed: 2714},
	{Label: "SB2", KWh: 955.9790879069669, S: 99.84543093710435, Migrations: 0, Completed: 2714},
	{Label: "DBF", KWh: 1022.8129525691162, S: 99.86586500050711, Migrations: 191, Completed: 2714},
	{Label: "SB", KWh: 880.3422404526581, S: 99.83485952453412, Migrations: 598, Completed: 2714},
	{Label: "SB", KWh: 804.6004712687663, S: 99.83238854969287, Migrations: 582, Completed: 2714},
	{Label: "SB-0/40", KWh: 1071.6058462176472, S: 99.87677814290304, Migrations: 0, Completed: 2714},
	{Label: "SB-20/40", KWh: 880.3422404526581, S: 99.83485952453412, Migrations: 598, Completed: 2714},
	{Label: "SB-60/100", KWh: 869.3372329366402, S: 99.83280111003833, Migrations: 1002, Completed: 2714},
}
